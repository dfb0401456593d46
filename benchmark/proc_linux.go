package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent asks the kernel to kill the server should the benchmark
// itself be killed, so not even SIGKILL of the benchmark leaves an
// adnet-server behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
