// Quickstart: transform a sparse random network into a spanning star
// with GraphToStar (§3 of the paper), elect the maximum UID as leader,
// and read off the edge-complexity measures.
package main

import (
	"fmt"
	"log"

	"adnet"
)

func main() {
	// A connected random network of 64 nodes with UIDs 0..63.
	g := adnet.RandomConnected(64, 40, 42)
	fmt.Printf("initial network: n=%d m=%d diameter=%d\n",
		g.NumNodes(), g.NumEdges(), g.Diameter())

	res, err := adnet.Run(adnet.GraphToStar, g, adnet.WithConnectivityCheck())
	if err != nil {
		log.Fatal(err)
	}

	final := res.FinalGraph()
	fmt.Printf("after %d rounds: leader=%d, final diameter=%d\n",
		res.Rounds, res.Leader, final.Diameter())
	fmt.Printf("total edge activations : %d\n", res.Metrics.TotalActivations)
	fmt.Printf("max activated edges    : %d (bound: 2n = %d)\n",
		res.Metrics.MaxActivatedEdges, 2*g.NumNodes())
	fmt.Printf("max activated degree   : %d\n", res.Metrics.MaxActivatedDegree)
	if err := res.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: spanning star rooted at the maximum UID")
}
