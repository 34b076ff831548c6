package task_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nprt/internal/task"
)

// Periods with many repeats, so equal-period ties are the common case.
var withPeriods = []task.Time{10, 20, 20, 40, 40, 40, 30}

// Two huge coprime periods: the LCM of either with any other period
// overflows int64.
const hugeA, hugeB task.Time = 4611686018427387903, 4611686018427387902

// withModel drives (*Set).With and (*Set).Without and checks every step
// against New on the insertion-ordered list of the tasks held.
type withModel struct {
	t    *testing.T
	list []task.Task // insertion order
	set  *task.Set   // nil while empty
	next int
}

// sameSet fails unless got and want hold the same tasks in the same order,
// with the same IDs, and the same hyper-period; nil means empty.
func (m *withModel) sameSet(op string, got, want *task.Set) {
	m.t.Helper()
	if (got == nil) != (want == nil) {
		m.t.Fatalf("%s: got set %v, New gives %v", op, got, want)
	}
	if got == nil {
		return
	}
	if !reflect.DeepEqual(got.Tasks(), want.Tasks()) {
		m.t.Fatalf("%s: tasks differ from New:\n%v\nvs\n%v", op, got, want)
	}
	if got.Hyperperiod() != want.Hyperperiod() {
		m.t.Fatalf("%s: hyper-period %d, New gives %d", op, got.Hyperperiod(), want.Hyperperiod())
	}
}

// with adds tk, unless both paths reject it with the same error text.
func (m *withModel) with(tk task.Task) {
	m.t.Helper()
	cand := append(append([]task.Task(nil), m.list...), tk)
	want, werr := task.New(cand)
	var got *task.Set
	var err error
	if m.set == nil {
		got, err = task.New([]task.Task{tk})
	} else {
		got, err = m.set.With(tk)
	}
	op := fmt.Sprintf("With(%q, p=%d)", tk.Name, tk.Period)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		m.t.Fatalf("%s: error %v, New gives %v", op, err, werr)
	}
	if err != nil {
		return
	}
	m.sameSet(op, got, want)
	m.list, m.set = cand, got
}

// without removes the set's i-th task.
func (m *withModel) without(i int) {
	m.t.Helper()
	name := m.set.Task(i).Name
	var rest []task.Task
	for _, tk := range m.list {
		if tk.Name != name {
			rest = append(rest, tk)
		}
	}
	var want *task.Set
	if len(rest) > 0 {
		want = task.MustNew(rest)
	}
	got := m.set.Without(i)
	m.sameSet(fmt.Sprintf("Without(%d=%q)", i, name), got, want)
	m.list, m.set = rest, got
}

// step performs one operation chosen by two bytes: an insert of a valid or
// invalid task, or a delete at the front, middle, end or anywhere.
func (m *withModel) step(op, arg byte) {
	if m.set != nil && op%3 == 0 {
		n := m.set.Len()
		switch op / 3 % 4 {
		case 0:
			m.without(0)
		case 1:
			m.without(n / 2)
		case 2:
			m.without(n - 1)
		default:
			m.without(int(arg) % n)
		}
		return
	}
	p := withPeriods[int(arg)%len(withPeriods)]
	tk := task.Task{
		Name:          fmt.Sprintf("t%d", m.next),
		Period:        p,
		WCETAccurate:  1 + task.Time(arg)%(min(p, 8)),
		Error:         task.Dist{Mean: float64(op % 5)},
		ExecAccurate:  task.Dist{Mean: float64(arg)},
		WCETImprecise: 1,
	}
	m.next++
	switch op % 11 {
	case 1: // x >= w
		tk.WCETImprecise = tk.WCETAccurate
	case 2:
		tk.Period = -task.Time(arg)
	case 7:
		tk.Period = hugeA
	case 8:
		tk.Period = hugeB
	case 4: // a name New fills in
		tk.Name = ""
	}
	if tk.Name == "" {
		// New names an unnamed task after its sorted index; the insertion
		// list keeps the name the set gave it.
		if m.set == nil {
			return
		}
		got, err := m.set.With(tk)
		want, werr := task.New(append(append([]task.Task(nil), m.set.Tasks()...), tk))
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			m.t.Fatalf("With(unnamed): error %v, New gives %v", err, werr)
		}
		if err == nil {
			m.sameSet("With(unnamed)", got, want)
		}
		return
	}
	m.with(tk)
}

// TestSetWithWithoutMatchesNew runs a seeded insert/delete sequence and
// holds the incremental set to New at every step, including the
// invalid-task and hyper-period-overflow rejections.
func TestSetWithWithoutMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := &withModel{t: t}
	for i := 0; i < 3000; i++ {
		m.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	if m.next < 1000 {
		t.Fatalf("only %d inserts", m.next)
	}
}

func TestSetWithOverflowErrorMatchesNew(t *testing.T) {
	big := validTask("big", hugeA, 4, 2)
	s := task.MustNew([]task.Task{big})
	// The new task sorts before big, so New reports the overflow at big.
	tk := validTask("c", hugeB, 4, 2)
	_, err := s.With(tk)
	_, werr := task.New([]task.Task{big, tk})
	if err == nil || err.Error() != werr.Error() {
		t.Fatalf("With error %v, New gives %v", err, werr)
	}
}

func TestSetWithLeavesReceiverUnchanged(t *testing.T) {
	s := task.MustNew([]task.Task{validTask("a", 10, 4, 2), validTask("b", 20, 4, 2)})
	before := append([]task.Task(nil), s.Tasks()...)
	if _, err := s.With(validTask("c", 10, 4, 2)); err != nil {
		t.Fatal(err)
	}
	_ = s.Without(0)
	if !reflect.DeepEqual(s.Tasks(), before) || s.Hyperperiod() != 20 {
		t.Fatalf("receiver changed: %v", s)
	}
	if s.Without(0).Without(0) != nil {
		t.Fatal("removing every task should give nil")
	}
}

func validTask(name string, period, w, x task.Time) task.Task {
	return task.Task{Name: name, Period: period, WCETAccurate: w, WCETImprecise: x}
}

// FuzzSetWithWithout drives the same differential from arbitrary bytes,
// two per operation. Each step checks against New on the whole list, so
// inputs are capped to keep an execution short.
func FuzzSetWithWithout(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 1, 2, 0, 0, 1, 7, 1, 8, 3, 0})
	f.Add([]byte{5, 3, 5, 3, 5, 3, 6, 0, 9, 0, 12, 9, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		m := &withModel{t: t}
		for i := 0; i+1 < len(data); i += 2 {
			m.step(data[i], data[i+1])
		}
	})
}
