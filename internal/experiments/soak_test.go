package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// soakGolden pins one soak configuration's first-drive outcome: the per-
// shard digests and the torment and containment counters.
type soakGolden struct {
	name     string
	seed     uint64
	events   int
	shards   []int
	policy   string
	replicas int
	faults   Faults

	digests [][]string // by width
	want    SoakRow    // counters only; Shards/Events/Ticks/Digests unchecked
}

// soakCounters keeps the counters TestSoakGoldenDigests pins.
func soakCounters(r SoakRow) SoakRow {
	return SoakRow{
		Kills: r.Kills, Evacs: r.Evacs, Migrated: r.Migrated, Evicted: r.Evicted,
		Wedges: r.Wedges, Promotions: r.Promotions, Reseeds: r.Reseeds,
		Brownouts: r.Brownouts, SlowEvents: r.SlowEvents, DeadlineSheds: r.DeadlineSheds,
		DeadlineMisses: r.DeadlineMisses, BlindMisses: r.BlindMisses, Misses: r.Misses,
	}
}

// TestSoakGoldenDigests pins the configurations the three separate soak
// loops (cluster, chaos, gray) ran before they were folded into Soak: Soak
// must reproduce every per-shard digest and counter.
func TestSoakGoldenDigests(t *testing.T) {
	quiet8 := []string{"90dc1841f7e47492", "76a9e6d5b7ceb1de", "3a0821eef31fd03a", "8f8f2a8774604a64",
		"41dd4a3f9e9f88c7", "7c4fbe110f94f713", "1506611df8ae152c", "90f2e2d6c7ea3552"}
	quiet32 := append(append([]string(nil), quiet8...),
		"c0a9d88337031ffd", "b8c6a9f2dd190978", "15c3d1cf685b285d", "f79996d1dea982ff",
		"e53273831551df82", "5893a2ec977a828b", "5f549efb89f62a74", "fc541dab7c35e0d7",
		"c0ad03107b73df4b", "5dca7602e0c5ea60", "c818196c48e38c5f", "8400243a0258be0b",
		"fc6ab6262ab13f96", "e58b1ac50d345220", "af2261ac2890235e", "b519eb1962cd5128",
		"da0acfc26fa63015", "4f1796d5d2076127", "e87dc348e20a9b4a", "69fad090878d1f26",
		"c5a1877065aeef98", "e85e656dfceec516", "980a885ac4e043bd", "bd95e5feb6a18974")
	cases := []soakGolden{
		{
			name: "chaos/r0", seed: 11, events: 320, shards: []int{3}, faults: ChaosFaults,
			digests: [][]string{{"5f3789e71e331d0e", "93f6c582f248b5a0", "e1ee437049d9d053"}},
			want:    SoakRow{Kills: 8, Evacs: 6, Migrated: 20, Misses: 37},
		},
		{
			name: "chaos/r1", seed: 11, events: 320, shards: []int{3}, replicas: 1, faults: ChaosFaults,
			digests: [][]string{{"b9722ba298462502", "1714218c4ed59969", "039383bc1acd1743"}},
			want:    SoakRow{Kills: 8, Wedges: 6, Promotions: 6, Reseeds: 20, Misses: 37},
		},
		{
			name: "gray/s7r1", seed: 7, events: 400, shards: []int{4}, replicas: 1, faults: GrayFaults,
			digests: [][]string{{"94231dd34d11a738", "7b0ecc3f8a6c2b4b", "8074b20a953a3d77", "cf55ebdc8c61513a"}},
			want: SoakRow{Brownouts: 17, SlowEvents: 17, Promotions: 17, Reseeds: 21,
				DeadlineMisses: 3, BlindMisses: 12, Misses: 8},
		},
		{
			name: "gray/s11r0", seed: 11, events: 400, shards: []int{4}, faults: GrayFaults,
			digests: [][]string{{"1b46c7e612aa7a91", "5f7597aba651127e", "c987b7abdb731e3e", "391428d82dafa175"}},
			want: SoakRow{Brownouts: 17, SlowEvents: 16, DeadlineSheds: 7,
				DeadlineMisses: 1, BlindMisses: 16, Misses: 51},
		},
		{
			name: "quiet/first-fit", seed: 7, events: 600, shards: []int{8, 32}, faults: QuietFaults,
			digests: [][]string{quiet8, quiet32},
			want:    SoakRow{Misses: 11},
		},
		{
			name: "quiet/round-robin", seed: 7, events: 600, shards: []int{8}, policy: "round-robin", faults: QuietFaults,
			digests: [][]string{{"f328f26a9c0b918f", "0a4c61e4f652f1f6", "2c78cf953a362989", "886922a1dc4feefd",
				"4003e73c9df5c505", "d758df66da547474", "758bbefc0e703898", "58a3d5389444901a"}},
			want: SoakRow{Misses: 4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Soak(Config{Seed: tc.seed}, t.TempDir(), tc.events, tc.shards, tc.policy, tc.replicas, tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			for w, row := range res.Rows {
				if got, want := strings.Join(row.Digests, " "), strings.Join(tc.digests[w], " "); got != want {
					t.Errorf("%d shards: digests\n got %s\nwant %s", row.Shards, got, want)
				}
				if got := soakCounters(row); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%d shards: counters\n got %+v\nwant %+v", row.Shards, got, tc.want)
				}
			}
		})
	}
}

// TestSoakViolation breaks each invariant in a plain snapshot and checks the
// checker names it, with its task or shard; a clean snapshot passes.
func TestSoakViolation(t *testing.T) {
	clean := func() soakState {
		return soakState{
			owners: map[string]int{"a": 0, "b": 1},
			shards: []soakShard{
				{live: []string{"a"}, primary: 0, followers: []int{1}},
				{live: []string{"b"}, primary: 1, followers: []int{0}},
			},
		}
	}
	expect := func() map[string]bool { return map[string]bool{"a": true, "b": true} }
	if v := violation(clean(), expect(), 1); v != "" {
		t.Fatalf("clean snapshot: %s", v)
	}
	cases := []struct {
		name   string
		break_ func(st *soakState, exp map[string]bool)
		want   []string
	}{
		{"accepted but not live", func(st *soakState, exp map[string]bool) { exp["c"] = true },
			[]string{"accepted ⇒ live", `"c"`}},
		{"live but never accepted", func(st *soakState, exp map[string]bool) { delete(exp, "b") },
			[]string{"live ⇒ accepted", `"b"`, "shard 1"}},
		{"live on two shards", func(st *soakState, exp map[string]bool) {
			st.shards[1].live = append(st.shards[1].live, "a")
		}, []string{"one owner", `"a"`, "shards 0 and 1"}},
		{"partition map disagrees", func(st *soakState, exp map[string]bool) { st.owners["a"] = 1 },
			[]string{"one owner", `"a"`, "shard 1", "live on shard 0"}},
		{"missing from partition map", func(st *soakState, exp map[string]bool) { delete(st.owners, "b") },
			[]string{"one owner", `"b"`, "shard 1"}},
		{"partition map names a dead task", func(st *soakState, exp map[string]bool) { st.owners["z"] = 0 },
			[]string{"one owner", `"z"`, "live on no shard"}},
		{"primary is also a follower", func(st *soakState, exp map[string]bool) { st.shards[1].followers = []int{1} },
			[]string{"one primary", "shard 1", "primary slot 1 is also a follower"}},
		{"slot out of range", func(st *soakState, exp map[string]bool) { st.shards[0].followers = []int{2} },
			[]string{"one primary", "shard 0", "slot 2"}},
		{"slot missing", func(st *soakState, exp map[string]bool) { st.shards[0].followers = nil },
			[]string{"one primary", "shard 0", "slot 1 is neither"}},
		{"clean miss", func(st *soakState, exp map[string]bool) { st.shards[1].missesClean = 1 },
			[]string{"clean misses", "shard 1"}},
	}
	for _, tc := range cases {
		st, exp := clean(), expect()
		tc.break_(&st, exp)
		v := violation(st, exp, 1)
		for _, w := range tc.want {
			if !strings.Contains(v, w) {
				t.Errorf("%s: violation %q does not name %q", tc.name, v, w)
			}
		}
	}
}

// TestSoakSameOutcome: a divergence between drives names the first tick
// whose digest differs, even when the runs end identical.
func TestSoakSameOutcome(t *testing.T) {
	a := &soakOutcome{trace: []uint64{1, 2, 3, 4}, digests: []uint64{9}, owners: map[string]int{"a": 0}}
	b := &soakOutcome{trace: []uint64{1, 2, 7, 4}, digests: []uint64{9}, owners: map[string]int{"a": 0}}
	if d := sameOutcome(a, a); d != "" {
		t.Fatalf("identical outcomes differ: %s", d)
	}
	if d := sameOutcome(a, b); !strings.Contains(d, "tick 2") {
		t.Fatalf("divergence %q does not name tick 2", d)
	}
	b.trace[2], b.owners["a"] = 3, 1
	if d := sameOutcome(a, b); !strings.Contains(d, `"a"`) {
		t.Fatalf("divergence %q does not name task a", d)
	}
}

// TestChaosSoak: seeded kills, wedge-evacuations and storage faults over a
// churn tape. Soak itself fails on any broken invariant or drive
// divergence; the test checks the torment actually happened. The full-
// scale sweep (8/64 shards, 1200 events) runs from paperbench and CI.
func TestChaosSoak(t *testing.T) {
	res, err := Soak(Config{Seed: 11}, t.TempDir(), 320, []int{3}, "", 0, ChaosFaults)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Policy != "first-fit" {
		t.Fatalf("rows %d, policy %q", len(res.Rows), res.Policy)
	}
	row := res.Rows[0]
	if row.Kills+row.Evacs == 0 {
		t.Fatal("chaos schedule injected no kills or evacuations — the soak tested nothing")
	}
	if len(row.Digests) != row.Shards {
		t.Errorf("%d digests for %d shards", len(row.Digests), row.Shards)
	}
	if out := FormatSoak(res); !strings.Contains(out, "CHAOS SOAK") {
		t.Errorf("format output missing banner:\n%s", out)
	}
	var sb strings.Builder
	if err := WriteSoakCSV(&sb, res); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 2 {
		t.Errorf("csv has %d lines, want header + 1 row", lines)
	}
}

// TestReplicatedChaosSoak is the zero-shed variant: every shard carries a
// synchronous follower, wedges land on primary and follower drives alike,
// and any shed fails the run — so the test checks that the torment
// exercised the failover machinery and drained nothing.
func TestReplicatedChaosSoak(t *testing.T) {
	res, err := Soak(Config{Seed: 11}, t.TempDir(), 320, []int{3}, "", 1, ChaosFaults)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Wedges == 0 || row.Kills == 0 {
		t.Fatalf("torment plan too quiet: %d wedges, %d kills", row.Wedges, row.Kills)
	}
	if row.Promotions == 0 {
		t.Fatal("primary wedges caused no promotions — failover never ran")
	}
	if row.Demotions == 0 || row.Reseeds == 0 {
		t.Fatalf("no demotion/re-seed traffic (%d/%d) — follower torment missed", row.Demotions, row.Reseeds)
	}
	// Zero-shed failure handling: nothing evacuated, nothing evicted.
	if row.Evacs != 0 || row.Evicted != 0 {
		t.Fatalf("replicated run drained tasks: evacs=%d evicted=%d", row.Evacs, row.Evicted)
	}
}

// TestGraySoakReplicated holds the headline gray-failure claim: seeded
// brownouts on primary drives, latency signal armed, replicas available —
// the torment must have happened, the signal must have fired and failed
// over, and it must beat the blind control drive.
func TestGraySoakReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("gray soak is a multi-drive cluster test")
	}
	r, err := Soak(Config{Seed: 7}, t.TempDir(), 400, []int{4}, "first-fit", 1, GrayFaults)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.Brownouts == 0 {
		t.Fatal("soak injected no brownouts; torment plan is dead")
	}
	if row.Promotions == 0 {
		t.Fatal("no promotions despite brownouts with replicas")
	}
	if row.SlowEvents == 0 {
		t.Fatal("latency signal never fired despite brownouts")
	}
	if row.BlindMisses == 0 {
		t.Fatal("blind drive missed no deadlines; brownouts never intersected traffic")
	}
	if row.DeadlineMisses >= row.BlindMisses {
		t.Fatalf("latency signal saved nothing: %d armed vs %d blind misses",
			row.DeadlineMisses, row.BlindMisses)
	}
	if out := FormatSoak(r); !strings.Contains(out, "GRAY SOAK") {
		t.Errorf("format output missing banner:\n%s", out)
	}
}

// TestGraySoakUnreplicated: without replicas there is no failover, but
// the signal must still fence and shed.
func TestGraySoakUnreplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("gray soak is a multi-drive cluster test")
	}
	r, err := Soak(Config{Seed: 11}, t.TempDir(), 400, []int{4}, "first-fit", 0, GrayFaults)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.Brownouts == 0 {
		t.Fatal("soak injected no brownouts; torment plan is dead")
	}
	if row.Promotions != 0 {
		t.Fatalf("unreplicated soak reported %d promotions", row.Promotions)
	}
	if row.SlowEvents == 0 {
		t.Fatal("latency signal never fired despite brownouts")
	}
}

// TestClusterSoak runs the quiet plan across widths: the tape must spread
// across shards, and wider clusters must hold at least as many tasks.
func TestClusterSoak(t *testing.T) {
	res, err := Soak(Config{Seed: 7}, t.TempDir(), 600, []int{8, 32}, "", 0, QuietFaults)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Policy != "first-fit" {
		t.Fatalf("rows %d, policy %q", len(res.Rows), res.Policy)
	}
	for _, row := range res.Rows {
		if len(row.Digests) != row.Shards {
			t.Errorf("%d shards: %d digests", row.Shards, len(row.Digests))
		}
		// First-fit packs tight: a light churn tape legitimately ends on few
		// shards, but never zero.
		if row.Spread < 1 {
			t.Errorf("%d shards: placement used %d shards", row.Shards, row.Spread)
		}
		if row.Admits == 0 || row.Jobs == 0 {
			t.Errorf("%d shards: empty run (%+v)", row.Shards, row)
		}
		if row.Kills+row.Evacs+row.Wedges+row.Brownouts != 0 || row.Reopens != 0 {
			t.Errorf("%d shards: quiet plan tormented the cluster (%+v)", row.Shards, row)
		}
	}
	if res.Rows[1].Resident < res.Rows[0].Resident {
		t.Errorf("32 shards resident %d < 8 shards %d", res.Rows[1].Resident, res.Rows[0].Resident)
	}

	// Round-robin is the spread baseline: blind spraying must land tasks on
	// many shards while still reproducing exactly under the parallel drive.
	rr, err := Soak(Config{Seed: 7}, t.TempDir(), 600, []int{8}, "round-robin", 0, QuietFaults)
	if err != nil {
		t.Fatal(err)
	}
	if row := rr.Rows[0]; row.Spread < 4 {
		t.Errorf("round-robin soak: spread %d", row.Spread)
	}
	if out := FormatSoak(res); !strings.Contains(out, "QUIET SOAK") || !strings.Contains(out, "first-fit") {
		t.Errorf("summary:\n%s", out)
	}
}

// TestSoakCombinedFaults runs fault plans no preset covers: kills under
// brownouts (with and without a follower to fail over to) and wedge-and-
// evacuate under brownouts. Storage faults stay off so the latency signal
// reads the same p99 on the serial and parallel drives.
func TestSoakCombinedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("combined soak is a multi-drive cluster test")
	}
	killGray := Faults{Name: "kill-gray", Kill: 0.02, Brownout: 0.04, LatencySignal: true}
	evacGray := Faults{Name: "evac-gray", Wedge: 0.012, Brownout: 0.04, LatencySignal: true}
	for _, tc := range []struct {
		f        Faults
		replicas int
	}{{killGray, 0}, {killGray, 1}, {evacGray, 0}} {
		for _, seed := range []uint64{1, 11} {
			name := fmt.Sprintf("%s/r%d/seed%d", tc.f.Name, tc.replicas, seed)
			res, err := Soak(Config{Seed: seed}, t.TempDir(), 600, []int{4}, "", tc.replicas, tc.f)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			row := res.Rows[0]
			if tc.f.Kill > 0 && row.Kills == 0 || tc.f.Wedge > 0 && row.Evacs == 0 ||
				row.Brownouts == 0 || row.SlowEvents == 0 {
				t.Errorf("%s: torment missed: kills %d, evacs %d, brownouts %d, slow %d",
					name, row.Kills, row.Evacs, row.Brownouts, row.SlowEvents)
			}
			if tc.replicas > 0 && row.Promotions == 0 {
				t.Errorf("%s: brownouts with a follower forced no promotion", name)
			}
		}
	}
}
