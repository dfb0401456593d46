// Reconfigurable robots: the paper's programmable-matter motivation
// (§1.4). A chain of robots (a spanning line — the worst case for
// information flow) reshapes itself into a complete binary tree so
// that command latency from the coordinator drops from Θ(n) to
// O(log n), while every intermediate shape keeps each robot within a
// constant number of active links (Proposition 2.2 / Theorem 4.2).
package main

import (
	"fmt"
	"log"

	"adnet"
)

func main() {
	const robots = 255
	chain := adnet.Line(robots)
	fmt.Printf("robot chain: %d modules, command latency %d hops\n",
		robots, chain.Diameter())

	res, err := adnet.Run(adnet.GraphToWreath, chain, adnet.WithConnectivityCheck())
	if err != nil {
		log.Fatal(err)
	}
	shape := res.FinalGraph()
	fmt.Printf("reshaped in %d rounds: coordinator=%d, latency %d hops, link budget %d per robot\n",
		res.Rounds, res.Leader, shape.Eccentricity(res.Leader), shape.MaxDegree())
	fmt.Printf("connectivity was preserved in every intermediate shape\n")
	fmt.Printf("peak transient links per robot (activated): %d\n",
		res.Metrics.MaxActivatedDegree)
	if err := res.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: spanning tree of logarithmic depth")
}
