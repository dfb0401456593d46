package sim

import (
	"reflect"
	"testing"

	"adnet/internal/graph"
)

// call is one engine call a skipMachine saw: its round, its phase
// ('S' Send, 'R' Receive) and, for a Receive, the inbox size.
type call struct {
	round int
	phase byte
	inbox int
}

// skipMachine records every call it gets. It may promise, from Init,
// that nothing is needed before skipTo's Send (renewing the promise
// after each call when renew is set), sends ping to ping in the rounds
// listed in pingAt, and halts in the Receive of round halt.
type skipMachine struct {
	skipTo int
	renew  bool
	ping   graph.ID
	pingAt []int
	halt   int
	calls  []call
}

func (m *skipMachine) Init(ctx *Context) {
	if m.skipTo > 0 {
		ctx.SkipUntil(m.skipTo, false)
	}
}

func (m *skipMachine) Send(ctx *Context) {
	m.calls = append(m.calls, call{round: ctx.Round(), phase: 'S'})
	for _, r := range m.pingAt {
		if r == ctx.Round() {
			ctx.Send(m.ping, "ping")
		}
	}
	if m.renew {
		ctx.SkipUntil(m.skipTo, false)
	}
}

func (m *skipMachine) Receive(ctx *Context, inbox []Message) {
	m.calls = append(m.calls, call{round: ctx.Round(), phase: 'R', inbox: len(inbox)})
	if ctx.Round() >= m.halt {
		ctx.Halt()
		return
	}
	if m.renew {
		ctx.SkipUntil(m.skipTo, false)
	}
}

// every lists the calls of rounds from..to when none is skipped, with
// empty inboxes.
func every(from, to int) []call {
	var cs []call
	for r := from; r <= to; r++ {
		cs = append(cs, call{round: r, phase: 'S'}, call{round: r, phase: 'R'})
	}
	return cs
}

// runSkip runs one skipMachine per node of Line(n), built by mk, and
// returns them by ID.
func runSkip(t *testing.T, n int, mk func(id graph.ID) *skipMachine, opts ...Option) []*skipMachine {
	t.Helper()
	ms := make([]*skipMachine, n)
	if _, err := Run(graph.Line(n), func(id graph.ID, _ Env) Machine {
		ms[id] = mk(id)
		return ms[id]
	}, opts...); err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestSkipUntilSkipsEarlierCalls: a node that promised nothing is
// needed before round 5's Send is first called there, and at every
// call after it; its neighbours are not affected.
func TestSkipUntilSkipsEarlierCalls(t *testing.T) {
	t.Parallel()
	ms := runSkip(t, 3, func(id graph.ID) *skipMachine { return &skipMachine{halt: 8} })
	ms2 := runSkip(t, 3, func(id graph.ID) *skipMachine {
		m := &skipMachine{halt: 8}
		if id == 1 {
			m.skipTo = 5
		}
		return m
	})
	if want := every(1, 8); !reflect.DeepEqual(ms[1].calls, want) || !reflect.DeepEqual(ms2[0].calls, want) {
		t.Fatalf("undeclared node calls %v / %v, want %v", ms[1].calls, ms2[0].calls, want)
	}
	if want := every(5, 8); !reflect.DeepEqual(ms2[1].calls, want) {
		t.Fatalf("node that skipped to round 5: calls %v, want %v", ms2[1].calls, want)
	}
}

// recvSkipper promises, in its round-1 Send, that nothing is needed
// before round 3's Receive.
type recvSkipper struct{ skipMachine }

func (m *recvSkipper) Send(ctx *Context) {
	m.skipMachine.Send(ctx)
	if ctx.Round() == 1 {
		ctx.SkipUntil(3, true)
	}
}

// TestSkipUntilReceivePosition: a promise up to a Receive skips that
// round's Send but not its Receive.
func TestSkipUntilReceivePosition(t *testing.T) {
	t.Parallel()
	m := &recvSkipper{skipMachine{halt: 4}}
	if _, err := Run(graph.Line(2), func(id graph.ID, _ Env) Machine {
		if id == 1 {
			return m
		}
		return &skipMachine{halt: 4}
	}); err != nil {
		t.Fatal(err)
	}
	want := append([]call{{round: 1, phase: 'S'}, {round: 3, phase: 'R'}}, every(4, 4)...)
	if !reflect.DeepEqual(m.calls, want) {
		t.Fatalf("calls %v, want %v", m.calls, want)
	}
}

// TestMessageWakesSkippedReceive: a message reaches a node whose calls
// are promised away — its Receive runs, with Round() naming the
// current round, while its Send stays skipped. The call clears the
// promise: a node that does not renew it is stepped at every call from
// then on, one that renews it is skipped again.
func TestMessageWakesSkippedReceive(t *testing.T) {
	t.Parallel()
	for _, renew := range []bool{false, true} {
		ms := runSkip(t, 2, func(id graph.ID) *skipMachine {
			if id == 0 {
				return &skipMachine{ping: 1, pingAt: []int{3}, halt: 10}
			}
			return &skipMachine{skipTo: 10, renew: renew, halt: 10}
		})
		want := []call{{round: 3, phase: 'R', inbox: 1}}
		if renew {
			want = append(want, every(10, 10)...)
		} else {
			want = append(want, every(4, 10)...)
		}
		if !reflect.DeepEqual(ms[1].calls, want) {
			t.Fatalf("renew=%v: calls %v, want %v", renew, ms[1].calls, want)
		}
	}
}

// TestRebootClearsSkip: a reboot restart builds a fresh machine, which
// is stepped at every call from the round after the restart however
// far its predecessor's promise reached.
func TestRebootClearsSkip(t *testing.T) {
	t.Parallel()
	var built []*skipMachine
	env := &scriptEnv{steps: map[int]func(*EnvEdits){
		2: func(e *EnvEdits) { e.Crash = append(e.Crash, 1) },
		4: func(e *EnvEdits) { e.Restart, e.Reboot = append(e.Restart, 1), true },
	}}
	_, err := Run(graph.Line(3), func(id graph.ID, _ Env) Machine {
		m := &skipMachine{halt: 8}
		if id == 1 {
			if len(built) == 0 {
				m.skipTo = 100 // the first machine promises the whole run away
			}
			built = append(built, m)
		}
		return m
	}, WithEnvironment(env))
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 2 {
		t.Fatalf("node 1 built %d times, want 2 (the reboot rebuilds it)", len(built))
	}
	if len(built[0].calls) != 0 {
		t.Fatalf("first machine called %v, want never", built[0].calls)
	}
	if want := every(5, 8); !reflect.DeepEqual(built[1].calls, want) {
		t.Fatalf("rebooted machine calls %v, want %v", built[1].calls, want)
	}
}

// outOfPhaseSender sends to its neighbour from Init and Receive only.
type outOfPhaseSender struct{ got int }

func (m *outOfPhaseSender) Init(ctx *Context) { ctx.Send(1-ctx.ID(), "init") }
func (m *outOfPhaseSender) Send(*Context)     {}
func (m *outOfPhaseSender) Receive(ctx *Context, inbox []Message) {
	m.got += len(inbox)
	ctx.Send(1-ctx.ID(), "receive")
	if ctx.Round() >= 3 {
		ctx.Halt()
	}
}

// TestSendOutsideSendPhaseIsDropped: only the Send phase delivers; a
// Send from Init or Receive reaches no inbox, no hook and no count.
func TestSendOutsideSendPhaseIsDropped(t *testing.T) {
	t.Parallel()
	ms := make([]*outOfPhaseSender, 2)
	hooked := 0
	res, err := Run(graph.Line(2), func(id graph.ID, _ Env) Machine {
		ms[id] = &outOfPhaseSender{}
		return ms[id]
	}, WithRoundHook(func(ev RoundEvent) { hooked += len(ev.Messages) }))
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].got != 0 || ms[1].got != 0 || hooked != 0 || res.TotalMessages != 0 {
		t.Fatalf("received %d + %d, hook saw %d, TotalMessages %d; want all 0",
			ms[0].got, ms[1].got, hooked, res.TotalMessages)
	}
}
