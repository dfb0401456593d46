package expt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/bits"
	"slices"
	"testing"

	"adnet/internal/core"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/subroutine"
	"adnet/internal/temporal"
)

// traceHasher folds everything an execution lets an observer see into
// one SHA-256: every round's RoundDelta (all four lists), every
// delivered message's (From, To), the final statuses and the error
// string. Payloads are left out on purpose — their representation is
// the machines' business — but a payload that changed a decision shows
// in the next round's messages or deltas.
type traceHasher struct {
	h   hash.Hash
	buf []byte
}

func (th *traceHasher) ints(vs ...int) {
	for _, v := range vs {
		th.buf = binary.AppendVarint(th.buf, int64(v))
	}
	if len(th.buf) >= 1<<15 {
		th.flush()
	}
}

func (th *traceHasher) slots(list []int32) {
	th.ints(len(list))
	for _, s := range list {
		th.ints(int(s))
	}
}

func (th *traceHasher) flush() {
	th.h.Write(th.buf)
	th.buf = th.buf[:0]
}

// traceDigest runs factory on g through eng and returns
// the run's trace hash and its Result (nil on a set-up error; valid
// until eng's next Reset).
func traceDigest(eng *sim.Engine, g *graph.Graph, factory sim.Factory, opts ...sim.Option) (string, *sim.Result) {
	th := &traceHasher{h: sha256.New()}
	opts = append(slices.Clone(opts),
		sim.WithRoundHook(func(ev sim.RoundEvent) {
			th.ints(ev.Round, len(ev.Messages))
			for _, m := range ev.Messages {
				th.ints(int(m.From), int(m.To))
			}
		}),
		sim.WithDeltaHook(func(d temporal.RoundDelta) {
			th.ints(d.Round)
			th.slots(d.Activate)
			th.slots(d.Deactivate)
			th.slots(d.EnvActivate)
			th.slots(d.EnvDeactivate)
		}))
	var res *sim.Result
	err := eng.Reset(g, factory, opts...)
	if err == nil {
		res, err = eng.Run()
	}
	if res != nil {
		th.ints(res.Rounds)
		for nd := range res.Nodes {
			th.ints(int(nd.ID), int(nd.Status))
		}
	}
	th.flush()
	if err != nil {
		fmt.Fprintf(th.h, "error: %v", err)
	}
	return hex.EncodeToString(th.h.Sum(nil)), res
}

// freshTraceDigest is traceDigest on a single-use engine.
func freshTraceDigest(g *graph.Graph, factory sim.Factory, opts ...sim.Option) string {
	eng := sim.NewEngine()
	defer eng.Close()
	d, _ := traceDigest(eng, g, factory, opts...)
	return d
}

// goldenFamilies are the seven distinct initial-network families of
// Workloads() (increasing-ring is ring, star is a one-phase corner).
var goldenFamilies = []string{"line", "ring", "random-tree", "bounded-degree", "random", "power-law", "small-world"}

// checkTraceGolden compares a folded trace hash with its literal.
func checkTraceGolden(t *testing.T, goldens map[string]string, key string, fold hash.Hash) {
	t.Helper()
	got := hex.EncodeToString(fold.Sum(nil))
	if want := goldens[key]; got != want {
		t.Errorf("trace changed:\n\t%q: %q,\nwant %q", key, got, want)
	}
}

// foldCellTraces folds the trace digests of seeds 1–3 of one
// (algorithm, family, n), logging each under key.
func foldCellTraces(t *testing.T, key, algo, family string, n int) hash.Hash {
	t.Helper()
	factory, opts, err := Simulation(algo, n)
	if err != nil {
		t.Fatal(err)
	}
	fold := sha256.New()
	for seed := int64(1); seed <= 3; seed++ {
		g, err := Workload(family, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		d := freshTraceDigest(g, factory, opts...)
		t.Logf("%s seed %d: %s", key, seed, d)
		fmt.Fprintln(fold, d)
	}
	return fold
}

// TestWreathTraceGoldens pins the §4/§5 machines' observable behaviour
// across commits: the determinism tests compare fresh and reused
// engines within one binary, this compares the binary with the one that generated the
// literals (PR 18's parent, before the machines' data layout changed).
// Cells that fail — the cyclic families ROADMAP item 1 lists — are
// pinned too, failing round and error string included, so that item's
// fix changes these literals deliberately and nothing else does.
//
// Each wreath literal folds seeds 1–3 of one (algorithm, family, n);
// each LineToTree literal folds the lines n ∈ {2 … 65, 256} of one
// (branching, wake schedule). Run with -v for the per-run digests.
func TestWreathTraceGoldens(t *testing.T) {
	t.Parallel()
	for _, algo := range []string{AlgoWreath, AlgoThinWreath} {
		for _, family := range goldenFamilies {
			for _, n := range []int{17, 64, 128, 256} {
				key := fmt.Sprintf("%s/%s/%d", algo, family, n)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					checkTraceGolden(t, wreathTraceGoldens, key, foldCellTraces(t, key, algo, family, n))
				})
			}
		}
	}
	for _, polylog := range []bool{false, true} {
		for _, staggered := range []bool{false, true} {
			key := fmt.Sprintf("line-to-tree/polylog=%v/staggered=%v", polylog, staggered)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				fold := sha256.New()
				for n := 2; n <= 256; n++ {
					if n > 65 && n < 256 {
						continue
					}
					parents := make(map[graph.ID]graph.ID, n)
					var wake map[graph.ID]int
					if staggered {
						wake = make(map[graph.ID]int, n)
					}
					for i := 0; i < n; i++ {
						parents[graph.ID(i)] = graph.ID(min(i+1, n-1))
						if staggered {
							wake[graph.ID(i)] = (n - 1 - i) % 16 // reverse line order
						}
					}
					factory, err := subroutine.NewLineToTreeFactory(subroutine.LineToTreeOptions{
						Branching: core.WreathBranching(n, polylog), Parents: parents, Wake: wake,
					})
					if err != nil {
						t.Fatal(err)
					}
					d := freshTraceDigest(graph.Line(n), factory)
					t.Logf("%s n %d: %s", key, n, d)
					fmt.Fprintln(fold, d)
				}
				checkTraceGolden(t, wreathTraceGoldens, key, fold)
			})
		}
	}
}

// TestWreathRecycleMatchesFresh cycles one Runner — its engine, its
// workload arena, machines recycled under the registry's keys —
// through wreath cells of changing family, size (growing and
// shrinking), seed and algorithm, one of them failing mid-phase, and
// requires each trace to equal a single-use engine's. A scratch field
// Recycle forgot, a buffer the embedded rebuild kept from the last
// phase of the previous run, or a schedule not recomputed for the new
// n shows here.
func TestWreathRecycleMatchesFresh(t *testing.T) {
	t.Parallel()
	r := NewRunner()
	defer r.Close()
	cells := []Cell{
		{Algorithm: AlgoWreath, Workload: "line", N: 64, Seed: 1},
		{Algorithm: AlgoWreath, Workload: "random-tree", N: 256, Seed: 2},
		{Algorithm: AlgoWreath, Workload: "small-world", N: 128, Seed: 1}, // dies in round 599
		{Algorithm: AlgoWreath, Workload: "ring", N: 96, Seed: 1},
		{Algorithm: AlgoWreath, Workload: "bounded-degree", N: 128, Seed: 3},
		{Algorithm: AlgoThinWreath, Workload: "random-tree", N: 128, Seed: 1},
		{Algorithm: AlgoThinWreath, Workload: "line", N: 256, Seed: 1},
		{Algorithm: AlgoThinWreath, Workload: "random", N: 64, Seed: 2},
		{Algorithm: AlgoWreath, Workload: "line", N: 64, Seed: 1},
	}
	var prev sim.Machine
	for i, c := range cells {
		factory, opts, err := Simulation(c.Algorithm, c.N)
		if err != nil {
			t.Fatal(err)
		}
		g, err := WorkloadInto(r.wg, r.wscratch, c.Workload, c.N, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		got, res := traceDigest(r.eng, g, factory, opts...)
		if want := freshTraceDigest(g, factory, opts...); got != want {
			t.Errorf("step %d %s: reused Runner's trace %s, fresh engine's %s", i, c.Key(), got, want)
		}
		m, _ := res.Machine(0)
		if i > 0 && cells[i-1].Algorithm == c.Algorithm && m != prev {
			t.Errorf("step %d %s: node 0's machine was rebuilt, not recycled", i, c.Key())
		}
		prev = m
	}
}

// wreathTraceGoldens were generated at commit fd92101 (PR 18's parent).
var wreathTraceGoldens = map[string]string{
	"graph-to-wreath/line/17":                    "81fa20bebf077f952f48781ad4e0b36df19ff51bd1bcdcabe1608166ef2b059b",
	"graph-to-wreath/line/64":                    "e060170ac8ba54abde2204d17cfb6e9381b116902f1eda7465a760efac13c341",
	"graph-to-wreath/line/128":                   "91e55f04cdc81c082bc13b50bd3f44ff92193d7d0f3eab734f3e11b5dfd31e0f",
	"graph-to-wreath/line/256":                   "ad78a75628e83248ea4f26247c44ce3f5a1ddc6af933dff7069b707c122826e9",
	"graph-to-wreath/ring/17":                    "6dbf7c660c11bf4f14244897b9b1f4c7906a1254905d251b31e311263f351f59",
	"graph-to-wreath/ring/64":                    "3a93fff497a6fb420a57904e55f0a3359115455222eb13c13214196f47e6cf40",
	"graph-to-wreath/ring/128":                   "8beba0d3075fe7bfadba7a41b75b5556fb48ed0b318d431d60ab30afdf99e80e",
	"graph-to-wreath/ring/256":                   "e37572167523191a10ba60509ba437e094d33cc5023c8b5ebd3fded046f656dc",
	"graph-to-wreath/random-tree/17":             "eff13e517e4688959eb4e02f6a081ed28ba994bc0ff9f2e9a9d01e865a64fc85",
	"graph-to-wreath/random-tree/64":             "c87145da0414a5e13919f4080ae13aeb27cef5dbecb07c970d17c6863516d6dd",
	"graph-to-wreath/random-tree/128":            "e1f32bd645712836ca7a322043d4468317873a60447bc41817bb4c557d7b6761",
	"graph-to-wreath/random-tree/256":            "ca0ebba66030b7bd76c265d1ea2f29d9bc741d504237841e24ec42325c1ce498",
	"graph-to-wreath/bounded-degree/17":          "183ff3d472de57644e152b591d06535b15b399328d907b73b47aacf652df3971",
	"graph-to-wreath/bounded-degree/64":          "90b04ba73eeeb056073b83026988fd8d695ea6ab68ec23818ba9cab59a077187",
	"graph-to-wreath/bounded-degree/128":         "f6b7cce941fe5645d8840961a076d796b8ce6391b7cefeec4873f3b5e66d2f1c",
	"graph-to-wreath/bounded-degree/256":         "c80c3204d476ab38b92b0ba9cc4b22b7e792bbbb738df02f013902116cd41f3f",
	"graph-to-wreath/random/17":                  "f96f0b2f32bec61a0e2e20dd92f15f1009b8e61ec747af0360a0f7275d125edf",
	"graph-to-wreath/random/64":                  "0e7f1fd3dbf6c2a2dbc618cca65451b54074a2f9bea2d258f60367566166ccc9",
	"graph-to-wreath/random/128":                 "8e5b2587defdfa98936363ff687016e1e56fe85c86d5dce6f1fe143b2f4d3d78",
	"graph-to-wreath/random/256":                 "28d9ef6fa087160a26c9debb1546e1e6db7e7fbf00caed2f6ef4e1b7923dab8e",
	"graph-to-wreath/power-law/17":               "41f97d3412659940bd8d9bc8e676b6823b6ca0a0e0f0ca54755feaff0c75969f",
	"graph-to-wreath/power-law/64":               "b4e6754ee3fb750d5aa396a668dd6bdb5a0ab14f8b57cc34957ff1afdf9ef9cf",
	"graph-to-wreath/power-law/128":              "25e97b8b52ca77496d29d069c360d5bc157d3c28786c1cf5f77c8edc44be36ed",
	"graph-to-wreath/power-law/256":              "26eab40dbded2f40cac46f5756b074ff26a8f3ea4877b2dfee441be98607ff91",
	"graph-to-wreath/small-world/17":             "321759ab6acfaabd8fe6f3917a1b61013431afac5ca72c2d67a41b9336057bba",
	"graph-to-wreath/small-world/64":             "1c1a405c35905ff2d1084f018ab2053cfc989e11c93192dfe5182b79d49d52b5",
	"graph-to-wreath/small-world/128":            "b8b0b9231d6fa3774e24d2d5d67b443b75be0f2ea2356f7684620bc643dca948",
	"graph-to-wreath/small-world/256":            "0798680ed9b6a94b677062f25da38d31fa23cfaedf890f52025e1866948d021f",
	"graph-to-thinwreath/line/17":                "81fa20bebf077f952f48781ad4e0b36df19ff51bd1bcdcabe1608166ef2b059b",
	"graph-to-thinwreath/line/64":                "ae8f5c8f34648847fb3fee011821367f4affbde88c755c0816021a93921b912a",
	"graph-to-thinwreath/line/128":               "74551c0f1c1e023aa08160249fc6e5344dcf6d9084f2c98ce2b5dc39eec84ddb",
	"graph-to-thinwreath/line/256":               "a0b4dbfcc7e3a0b067d0e5936c1466fa0df9fc2437b1f3fc27fa23a6c5e79aa8",
	"graph-to-thinwreath/ring/17":                "6dbf7c660c11bf4f14244897b9b1f4c7906a1254905d251b31e311263f351f59",
	"graph-to-thinwreath/ring/64":                "7b2d7b6ee0a8817617eb5540e279739f7662ad3d090692ea4136e4766fec7548",
	"graph-to-thinwreath/ring/128":               "39df89a5c40b673ce9cbb666471a1b788d96fa49ff7b24eff3969920d1c7532c",
	"graph-to-thinwreath/ring/256":               "c2e8f5c8c0d850b75a232f1c2ca1c476e5d96bbab14af7e920319279fd78e1b5",
	"graph-to-thinwreath/random-tree/17":         "db2011abb0a6b6c69812db0c4b15ce725ec4b5ad8d4edd56595333e6396717bf",
	"graph-to-thinwreath/random-tree/64":         "62b6d0087901c6a64715da9d882edc7a9f704160c77714561b8aef21e230a163",
	"graph-to-thinwreath/random-tree/128":        "51a9abab59e518673164f87d73aac7fbd74ecfef30b672b438f4f4490e78a763",
	"graph-to-thinwreath/random-tree/256":        "2d984bacc81d9b86b8c87f64d7108b906731d42807f9b252a82f56e79f391c10",
	"graph-to-thinwreath/bounded-degree/17":      "8b4ddf5f3184e7250bfc01d02a00756257d815115f0b885b2c5fb9c8c8f1d830",
	"graph-to-thinwreath/bounded-degree/64":      "64bda39aaea53c257c18711b6b8bccf86a3454d6b2569f060ca134973a8b4e10",
	"graph-to-thinwreath/bounded-degree/128":     "c5385673f318298554f18eba8a871d6fe1825b19ad31508057e05a3aa2e8031c",
	"graph-to-thinwreath/bounded-degree/256":     "edd62d50a6d653b5c20043e6aba30238bf85309f5e8caec6ee6e161188ba3667",
	"graph-to-thinwreath/random/17":              "f2a1ef5cd0b0b825043de95e9f4d596c48617c93b2a201d9f89f127129373a6f",
	"graph-to-thinwreath/random/64":              "2a02c6286a0af76ae713da1bb786bdbf4c90d4e22c99355d3e8814dd4450f36d",
	"graph-to-thinwreath/random/128":             "f2f2804a15fe788e497eb3274f1e0f098e27258546320bd15adc2c8865a615ab",
	"graph-to-thinwreath/random/256":             "07204b0e9157ffd07cb7734656d3d905befc872f7d0325b7da68ef5205060a2c",
	"graph-to-thinwreath/power-law/17":           "7366e01e9b27d0d7feae4269fbe8af911847d3423eac0b9c2d85e20dbf7c2827",
	"graph-to-thinwreath/power-law/64":           "50921d28475ac37122f8096c8d05225276211a495a0d13fab14720395a055ba1",
	"graph-to-thinwreath/power-law/128":          "3d1036179cbc46ca96956666969185092ecea308dfb05e39025d68ac51e1c832",
	"graph-to-thinwreath/power-law/256":          "62e161dd1667b6cba4d1ee40bc5791b7d2ddf41fe3c98913b4010ed76c4f426e",
	"graph-to-thinwreath/small-world/17":         "0f71ff66fee6a61e482f91a9f524788c74072907b732a0c696ffd57640a912e5",
	"graph-to-thinwreath/small-world/64":         "94352ad1f010d7aa62d4867227c50361993f0f41dda47fb3c260ee3068dcc1d0",
	"graph-to-thinwreath/small-world/128":        "4ef05a073622e490a483633ac37c58f09de3612e016316d9cd2f98d35e1a01fe",
	"graph-to-thinwreath/small-world/256":        "5b541087e11ac68d2c2899185935245df088a6eeab3cc64e4a88a4cf481aea58",
	"line-to-tree/polylog=false/staggered=false": "79d51adb4530ec8529931c6505fd9f13bd7211788491902af63e9030aa6608fe",
	"line-to-tree/polylog=false/staggered=true":  "0d1e5d95b70420bf21e1f4a72a1c9abf0545232c09f3b06fbc8091ca4bf3335e",
	"line-to-tree/polylog=true/staggered=false":  "fd3cf5555db8ea2c7c837f7d94987878cf9a052693a03fd33fc544d4d27b7592",
	"line-to-tree/polylog=true/staggered=true":   "d551766801a44f8c16b05915af9ce3e633b3ae198c48092be4224e2b83e95cd2",
}

// TestLineToTreeTraceGoldens pins single standalone NewLineToTreeFactory
// runs, one literal each: lines of n ∈ {33, 256} at b ∈ {2, ⌈log2 n⌉},
// every node awake at round 0 or on a staggered Wake map. Each run must
// also take exactly the budget its wake skew gives.
func TestLineToTreeTraceGoldens(t *testing.T) {
	t.Parallel()
	for _, n := range []int{33, 256} {
		for _, b := range []int{2, bits.Len(uint(n - 1))} {
			for _, staggered := range []bool{false, true} {
				key := fmt.Sprintf("line-to-tree/n=%d/b=%d/staggered=%v", n, b, staggered)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					parents := make(map[graph.ID]graph.ID, n)
					var wake map[graph.ID]int
					if staggered {
						wake = make(map[graph.ID]int, n)
					}
					skew := 0
					for i := range n {
						parents[graph.ID(i)] = graph.ID(min(i+1, n-1))
						if staggered {
							wake[graph.ID(i)] = i * 7 % 13
							skew = max(skew, i*7%13)
						}
					}
					factory, err := subroutine.NewLineToTreeFactory(subroutine.LineToTreeOptions{
						Branching: b, Parents: parents, Wake: wake,
					})
					if err != nil {
						t.Fatal(err)
					}
					eng := sim.NewEngine()
					defer eng.Close()
					d, res := traceDigest(eng, graph.Line(n), factory)
					if want := lineToTreeTraceGoldens[key]; d != want {
						t.Errorf("trace changed:\n\t%q: %q,\nwant %q", key, d, want)
					}
					if want := subroutine.LineToTreeBudget(n, b, skew); res == nil || res.Rounds != want {
						t.Errorf("rounds = %v, want the budget %d", res, want)
					}
				})
			}
		}
	}
}

// lineToTreeTraceGoldens were generated at commit d745812, before the
// standalone LineToTree and the embedded one shared a constructor.
var lineToTreeTraceGoldens = map[string]string{
	"line-to-tree/n=33/b=2/staggered=false":  "e51e74c18ae7e78ed82faac10a2fb0197059816ea922f5403c9e2d70f948bbdb",
	"line-to-tree/n=33/b=2/staggered=true":   "ea46b4090569555caed56403479ff3cdd2ae349ee2f654c721187250f54f64d0",
	"line-to-tree/n=33/b=6/staggered=false":  "6ff28534bef98e869936049318ed8f2ad14992fad98cb0b18a10276c9bb9e690",
	"line-to-tree/n=33/b=6/staggered=true":   "af77a3341ce8e65eb3b13a71db0dcc4038fb29f2bed18fd12b11a7944e8ca710",
	"line-to-tree/n=256/b=2/staggered=false": "17c102526b41857072f92a07a980b836f2860d6d3e9858635bc22ef735d493cc",
	"line-to-tree/n=256/b=2/staggered=true":  "75b593be027258cc9361ddb9c4609d3aad164486a68fc7c4ce1443d3d9d6d8c7",
	"line-to-tree/n=256/b=8/staggered=false": "431958fcbb848a9a4c3c0062191fee525f2843ce81eca886f2b66be409c7814d",
	"line-to-tree/n=256/b=8/staggered=true":  "be7eca4ec812fc134aea379b608e33b6452f44d182c61d2ce216bd0ca1499550",
}

// sparseRelabel returns g with every node u renamed 3u+7: IDs with
// gaps, none of them 0, so a trace that shows ranks 0..n−1 on the wire
// shows that slots are ranks and not IDs.
func sparseRelabel(g *graph.Graph) *graph.Graph {
	out := graph.New()
	for _, u := range g.Nodes() {
		out.AddNode(3*u + 7)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(3*e.A+7, 3*e.B+7)
	}
	return out
}

// TestStarAndBaselineTraceGoldens is TestWreathTraceGoldens for §3 and
// the two distributed baselines, which until PR 19 were pinned across
// commits by outcome digests only. Each literal folds seeds 1–3 of one
// (algorithm, family, n); the */sparse literals run random-tree/24
// seed 1 relabelled u ↦ 3u+7.
func TestStarAndBaselineTraceGoldens(t *testing.T) {
	t.Parallel()
	for _, algo := range []string{AlgoStar, AlgoFlood, AlgoClique} {
		for _, family := range goldenFamilies {
			for _, n := range []int{17, 64, 256} {
				if algo == AlgoClique && n > 64 {
					continue
				}
				key := fmt.Sprintf("%s/%s/%d", algo, family, n)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					checkTraceGolden(t, starAndBaselineTraceGoldens, key, foldCellTraces(t, key, algo, family, n))
				})
			}
		}
		key := algo + "/sparse"
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			factory, opts, err := Simulation(algo, 24)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Workload("random-tree", 24, 1)
			if err != nil {
				t.Fatal(err)
			}
			fold := sha256.New()
			fmt.Fprintln(fold, freshTraceDigest(sparseRelabel(g), factory, opts...))
			checkTraceGolden(t, starAndBaselineTraceGoldens, key, fold)
		})
	}
}

// starAndBaselineTraceGoldens were generated at commit 3c60373 (PR 19's
// parent, before graph storage became ID-indexed).
var starAndBaselineTraceGoldens = map[string]string{
	"graph-to-star/line/17":            "011959982d794297a51302045075c2b24f5ca03ea77758c34820c80f86f521ad",
	"graph-to-star/line/64":            "ad449357c33e3bc0a748fb175c0ac927f53c96201d25440ba4405be2acb3ede2",
	"graph-to-star/line/256":           "3c5a6d82f6759266551e6717ffc5e0964964b109619ccedfb94d769f6bb18a70",
	"graph-to-star/ring/17":            "6f27e811eeccd565deb4fb2ede9fb54f2874ba2fe94c9e583fca8d78118a6aa2",
	"graph-to-star/ring/64":            "237643631eeb59918e4900dec6a8061c48cec530a9a1e1fd58225c778b09f08b",
	"graph-to-star/ring/256":           "71384f8f9f7840f0e2971c42461447478224d3ad5ab2c83441ae6b523e77cd4f",
	"graph-to-star/random-tree/17":     "23b552e9e396ab4cf9238f9e1399773c21ab773d6ca48b44972903a3addb4cd7",
	"graph-to-star/random-tree/64":     "ae580dc3af1d58d24090225f37509bc2d9b2ba1c77c70389edb8b9d4b2ae20b0",
	"graph-to-star/random-tree/256":    "fb893b2d180c2f4c2aa74b5dcb7e0b6e95291d7d12c71c1b03f3d74d4bfeb887",
	"graph-to-star/bounded-degree/17":  "92dd9966116485d1d9194d072f7eecfde5869efd103c9c804de57523c8ba8aa2",
	"graph-to-star/bounded-degree/64":  "65fe17aaa398b1fb36e993ac6f9f85ccf45a94c187a6ec74c4906e6946803fa6",
	"graph-to-star/bounded-degree/256": "87211f51efedaa6b5228f70ed7b41997601d3f226f01e9119f20efd2b64372ea",
	"graph-to-star/random/17":          "2a9cdb4d38ee1d827e3f507994c1f29a9a24bfbda35f0be4f3c0b56ba44587a5",
	"graph-to-star/random/64":          "c126cf180fe768209b322506c4119e8f75f077d98250ab91185b202e01ac6a3c",
	"graph-to-star/random/256":         "dce6c0a0fc62be9fd2615683aaa49ed59fd33c90593730e38f1fe73383e94b9a",
	"graph-to-star/power-law/17":       "c031f135e950c7548d148ea57036069a4bf2a1a4f2a76a9fbb0fa5d11cc96076",
	"graph-to-star/power-law/64":       "ba2840bc9210d6320d0ab58eb4a2f2dcce84c4c9a3ff2b2fdbbc59c7c927fa4e",
	"graph-to-star/power-law/256":      "9f7cb681cc5a5beeb6b5c88216f4221389ba89a4ca696cb2d72e060d643e3a01",
	"graph-to-star/small-world/17":     "2cdb5d97a6e9ec46d3957dc51d0566926a81c131769993699a46de6f6161cbb5",
	"graph-to-star/small-world/64":     "911290fcf65bdd11e7c933936fc40699ecfba174e54a0e1e37b4cc4898b2112e",
	"graph-to-star/small-world/256":    "2415834622555463a26d6137164ace821b5fbb0736bdc52295745753408a2fac",
	"graph-to-star/sparse":             "0c3c8fd62504fbd232ac66e91dfa465bab522f7026389b0dedb1b6ff61e5b97d",
	"flood/line/17":                    "6b63a07e10b41a2407755891225fa868a92d2f0d97a86c02cbd897a2f6e682de",
	"flood/line/64":                    "c945197c3fb3485200a0556bf4bc50003de5cfd7fc5043f7dc606b74a9ceb55c",
	"flood/line/256":                   "6e47334b0d4fd9d5a55dd2f7b0da395d7311036dd6a8e31f5ca59d41432d3820",
	"flood/ring/17":                    "51ffab3afcc1308187f984b137c34ce9fa822a95f14b86d13a89bc3421492cde",
	"flood/ring/64":                    "5591543f571b7f43b211261182a374271b8ca4d3b77048f5dc0c34addb548596",
	"flood/ring/256":                   "82e87b2ef5409c253ad313df2f003f0477f243772e4d2409d25dc6389c341641",
	"flood/random-tree/17":             "93b8c33495f057493a13a83eed153c60f106ea055559ecda0e8b79489d25cb65",
	"flood/random-tree/64":             "0e5e81e4f724176f785f291f0bb473dd299b15eee53e5e4fc92ca9f6648cd0bc",
	"flood/random-tree/256":            "36ebc1c19968b805901adb5cca8d6ba83adce34e2cb680d370e9492e51cd2fda",
	"flood/bounded-degree/17":          "36920de8eda0f914c7e3997e8f8b5042133aa1c4613c0a8e4834a0de3bcdd450",
	"flood/bounded-degree/64":          "fe899557af09d938dfec16621e6b2e9f6075c543d13c1be424404587764bf859",
	"flood/bounded-degree/256":         "993072f8ac93bc51d1255a6c703fe5561e11467135cca61d5952781f1d7fd53d",
	"flood/random/17":                  "1140972645d2a33b2a5101718acccfafb3863657a7df4d3958b5bae7adbdd057",
	"flood/random/64":                  "18357bbc3370fd6a2259ffa006d196de7241821036c74dd76c3ce30be88bf2d4",
	"flood/random/256":                 "b307a47e9805c7daabd57e6855e5d819410ca48d57af32c9be1ac059bceb0cd6",
	"flood/power-law/17":               "57536cb66cd53e28032f029d6ec60da90b3cc1cbb2b67c4beb64570294a7a2eb",
	"flood/power-law/64":               "e381446561411b113ac4da22b446b595589a2a6d08cd22220e8183b21f8bb448",
	"flood/power-law/256":              "769581b89285bc6df0bcb4ea21741ffee110009cdb8bd3cf4a3a89cd6615ff7a",
	"flood/small-world/17":             "06b871cf3dfeb2175392ce123924249ac276e4b1d5ee880d0f95551936cc2832",
	"flood/small-world/64":             "59592071e268aa92d3709a6499f270523b264b2a65a73f6d5c002e73c5715573",
	"flood/small-world/256":            "c78c5d55b2951fa57a4313d7b9edf97d3d3dcdb9a22820eddb58b435688d5a4d",
	"flood/sparse":                     "9fea06fd6f4e14c912ac408147820428599334524ee70427d3c6600ef6bbac1c",
	"clique/line/17":                   "fa497ad19c6ed73716492f2d873e4451ec2556622c93615cd3a11ad569605a59",
	"clique/line/64":                   "2f4a823218f3cbeed9a2d46005eb4f51d04776486dfde2db82dafe7a81c90db2",
	"clique/ring/17":                   "73abeeac37cfc5c31305dd06200faee260f67a52829097a9172339d0748a5659",
	"clique/ring/64":                   "284efc832b60b3f77e3341ff8bf0065f2e7866a3c0eef0ed03515a7ed1fe422c",
	"clique/random-tree/17":            "a5e5ae93a5e4702d0fd9675eb4be06d60e57037666d9f9dd0c204f6be93fafdd",
	"clique/random-tree/64":            "5b6f34e2bbc99d972208958e83b4666211e3899e6a3760d8d94cc78218a13c0f",
	"clique/bounded-degree/17":         "a6348a99b91b55e7a45f78c2de48f7a35e99073d113c2888f3b5578ca2c174cd",
	"clique/bounded-degree/64":         "3e4c09e021ed4abfd8102fa812730ecfcc013a7d914ecbd46a840ba8cad5d173",
	"clique/random/17":                 "7784c627b910e018d17102f42becd0b7f89dbf9ced0432be9a178157471ec790",
	"clique/random/64":                 "eda73e6e8b538c0f004261ec3fa5fb78a193b29875812497008b17f10dd92058",
	"clique/power-law/17":              "75e7131b6303edaaea130ee80425e49a190b0f5b6a371254119b477c2218011e",
	"clique/power-law/64":              "358b289a3f018614559807d96ed938cac877ec2980efbd5ecb5be665556cab1f",
	"clique/small-world/17":            "ec3883a35f3f541d85714a8acb564b98a0494941f72d87c2cef956a5c8a7a8a0",
	"clique/small-world/64":            "534b17850200c6869db184e188071d2f0040f561edefceb4fdc72f7f12bdcca6",
	"clique/sparse":                    "d1b7074b12492d76eba4c0cf37f5e1cfa73814f0903e646477b79737cf890d9e",
}
