package main

import (
	"testing"

	"nprt/internal/cluster"
)

// TestCountVerdictsBatch: a 200 /admit/batch reply mixes admitted and
// rejected adds with events the server shed; each lands in its own tally,
// and no batch entry counts as a whole-request shed.
func TestCountVerdictsBatch(t *testing.T) {
	body := `{"decisions":[
		{"shard":0,"decision":{"op":"add","verdict":1}},
		{"shard":1,"decision":{"op":"add","verdict":2}},
		{"shard":0,"decision":{"op":"add","verdict":0}},
		{"shard":-1,"decision":{"op":"add","verdict":0},"error":"load shed: ` + cluster.ErrShardFailed.Error() + `; retry after 40ms"},
		{"shard":-1,"decision":{"op":"remove","verdict":0},"error":"load shed: ` + cluster.ErrShardSlow.Error() + `"},
		{"shard":-1,"decision":{"op":"add","verdict":0},"error":"runtime: duplicate add"},
		{"shard":1,"decision":{"op":"remove","verdict":1}}
	]}`
	var s tstat
	s.countVerdicts([]byte(body))
	if s.admits != 2 || s.addRejects != 1 || s.shedEvents != 2 || s.shed != 0 {
		t.Fatalf("admits %d, rejects %d, shed events %d, shed requests %d; want 2, 1, 2, 0",
			s.admits, s.addRejects, s.shedEvents, s.shed)
	}
}
