package sim

import "nprt/internal/task"

// pendingQueue is the engine's released-but-unexecuted job set: an
// unordered slice, walked on every EDF pick, release-time query and keyed
// removal. The simulated sets keep a handful of jobs pending (about four on
// the paper's largest case), where one pass over a short contiguous slice
// costs less than maintaining any ordered structure. The slice keeps its
// capacity across runs when the owning State is pooled.
type pendingQueue struct {
	list []task.Job
}

// reset empties the queue for a fresh run, keeping capacity.
func (p *pendingQueue) reset() { p.list = p.list[:0] }

// size returns the number of pending jobs.
func (p *pendingQueue) size() int { return len(p.list) }

// push adds a newly released job.
func (p *pendingQueue) push(j task.Job) { p.list = append(p.list, j) }

// remove deletes the job with the given key; reports whether it was present.
func (p *pendingQueue) remove(key task.JobKey) bool {
	for i := range p.list {
		if p.list[i].Key() == key {
			last := len(p.list) - 1
			p.list[i] = p.list[last]
			p.list = p.list[:last]
			return true
		}
	}
	return false
}

// peekEDF returns the pending job with the earliest deadline under the EDF
// total order (deadline, release, task ID, index). The order is total, so
// the answer does not depend on the slice's order.
func (p *pendingQueue) peekEDF() (task.Job, bool) {
	if len(p.list) == 0 {
		return task.Job{}, false
	}
	best := p.list[0]
	for _, j := range p.list[1:] {
		if edfBefore(j, best) {
			best = j
		}
	}
	return best, true
}

// minRelease returns the earliest release time among pending jobs other
// than exclude.
func (p *pendingQueue) minRelease(exclude task.JobKey) (task.Time, bool) {
	var best task.Time
	found := false
	for _, j := range p.list {
		if j.Key() == exclude {
			continue
		}
		if !found || j.Release < best {
			best, found = j.Release, true
		}
	}
	return best, found
}

// jobs exposes the pending set as an unordered read-only slice.
func (p *pendingQueue) jobs() []task.Job { return p.list }

// dropLate removes every pending job whose deadline is at or before now,
// calling drop for each.
func (p *pendingQueue) dropLate(now task.Time, drop func(task.Job)) {
	kept := p.list[:0]
	for _, j := range p.list {
		if j.Deadline <= now {
			drop(j)
			continue
		}
		kept = append(kept, j)
	}
	p.list = kept
}
