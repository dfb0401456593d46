package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adnet/internal/graph"
)

// castMsg is castMachine's payload: the sender's round and its highest
// neighbour, which the receiver then activates an edge to.
type castMsg struct {
	Round int
	Far   graph.ID
}

// castMachine sends one payload to every neighbour in Init, Send and
// Receive, through ctx.Broadcast or, with loop set, through ctx.Send
// for each v in ctx.Neighbors(). Only the Send-phase copies may
// arrive. Receive activates an edge to each sender's highest
// neighbour, so adjacency rows grow as the run goes on.
type castMachine struct {
	loop   bool
	rounds int
}

func (m *castMachine) cast(ctx *Context) {
	nbrs := ctx.Neighbors()
	if len(nbrs) == 0 {
		return
	}
	p := castMsg{Round: ctx.Round(), Far: nbrs[len(nbrs)-1]}
	if !m.loop {
		ctx.Broadcast(p)
		return
	}
	for _, v := range nbrs {
		ctx.Send(v, p)
	}
}

func (m *castMachine) Init(ctx *Context) { m.cast(ctx) }

func (m *castMachine) Send(ctx *Context) { m.cast(ctx) }

func (m *castMachine) Receive(ctx *Context, inbox []Message) {
	for _, msg := range inbox {
		if far := msg.Payload.(castMsg).Far; far != ctx.ID() && !ctx.HasNeighbor(far) {
			ctx.Activate(far)
		}
	}
	m.cast(ctx)
	if ctx.Round() >= m.rounds {
		ctx.Halt()
	}
}

// castTrace is what one run delivered: every round's messages and the
// engine's totals.
type castTrace struct {
	rounds    [][]Message
	total     int
	maxRound  int
	numRounds int
}

func runCast(t *testing.T, g *graph.Graph, loop bool, opts ...Option) castTrace {
	t.Helper()
	var tr castTrace
	opts = append(opts[:len(opts):len(opts)], WithRoundHook(func(ev RoundEvent) {
		tr.rounds = append(tr.rounds, append([]Message(nil), ev.Messages...))
	}))
	res, err := Run(g, func(graph.ID, Env) Machine { return &castMachine{loop: loop, rounds: 6} }, opts...)
	if err != nil {
		t.Fatalf("Run (loop=%v): %v", loop, err)
	}
	tr.total, tr.maxRound, tr.numRounds = res.TotalMessages, res.MaxMessagesPerRound, res.Rounds
	return tr
}

// castCase is one graph of TestBroadcastMatchesSendLoop and the
// options both of its runs take.
type castCase struct {
	name string
	g    *graph.Graph
	opts []Option
}

// TestBroadcastMatchesSendLoop pins ctx.Broadcast(p) to a ctx.Send(v, p)
// loop over ctx.Neighbors(): the same messages every round, in the
// same order, and the same totals. It covers random connected graphs;
// a graph with a degree-99 hub, where rows grow past the degree (64)
// at which EachNeighbor walks a bitset instead of a slice; an
// environment that adds and cuts edges and crashes two slots mid-run,
// then restarts one asleep and reboots the other; and sends from Init
// and Receive, which both must drop.
func TestBroadcastMatchesSendLoop(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	var cases []castCase
	for i := range 4 {
		cases = append(cases, castCase{name: fmt.Sprintf("random-%d", i), g: graph.RandomConnected(40+10*i, 20*i, rng)})
	}
	hub := graph.RandomConnected(100, 30, rng)
	for v := graph.ID(1); v < 100; v++ {
		if !hub.HasEdge(0, v) {
			hub.MustAddEdge(0, v)
		}
	}
	cases = append(cases, castCase{name: "hub", g: hub})
	envGraph := graph.RandomConnected(60, 40, rng)
	cases = append(cases, castCase{name: "crash", g: envGraph, opts: []Option{WithEnvironment(&scriptEnv{steps: map[int]func(*EnvEdits){
		1: func(e *EnvEdits) {
			e.Activate = append(e.Activate, graph.NewEdge(3, 50), graph.NewEdge(3, 51))
			e.Crash = append(e.Crash, 5)
		},
		2: func(e *EnvEdits) {
			e.Deactivate = append(e.Deactivate, graph.NewEdge(3, 50))
			e.Crash = append(e.Crash, 3)
		},
		3: func(e *EnvEdits) { e.Restart = append(e.Restart, 3) },
		4: func(e *EnvEdits) {
			e.Restart = append(e.Restart, 5)
			e.Reboot = true
		},
	}})}})

	for _, tc := range cases {
		bc := runCast(t, tc.g, false, tc.opts...)
		loop := runCast(t, tc.g, true, tc.opts...)
		if bc.total == 0 {
			t.Fatalf("%s: no messages delivered", tc.name)
		}
		if bc.total != loop.total || bc.maxRound != loop.maxRound || bc.numRounds != loop.numRounds {
			t.Fatalf("%s: broadcast total/max/rounds %d/%d/%d, send loop %d/%d/%d", tc.name,
				bc.total, bc.maxRound, bc.numRounds, loop.total, loop.maxRound, loop.numRounds)
		}
		if len(bc.rounds) != len(loop.rounds) {
			t.Fatalf("%s: %d hooked rounds, send loop %d", tc.name, len(bc.rounds), len(loop.rounds))
		}
		for r := range bc.rounds {
			if !reflect.DeepEqual(bc.rounds[r], loop.rounds[r]) {
				t.Fatalf("%s: round %d messages differ:\nbroadcast %v\nsend loop %v", tc.name, r+1, bc.rounds[r], loop.rounds[r])
			}
			for _, msg := range bc.rounds[r] {
				if got := msg.Payload.(castMsg).Round; got != r+1 {
					t.Fatalf("%s: round %d delivered a message sent in round %d", tc.name, r+1, got)
				}
			}
		}
	}
}
