//go:build !linux

package main

import "os/exec"

// dieWithParent has no portable equivalent of Linux's parent-death
// signal; the deferred and signal-driven teardown still apply.
func dieWithParent(*exec.Cmd) {}
