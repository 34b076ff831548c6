package feasibility

// CheckExhaustive exposes the unit-stride oracle to the external
// differential tests (feasibility_test), which also need internal/workload
// and therefore cannot live in this package.
var CheckExhaustive = checkExhaustive

// WorkCounts reports the mirror's condition-2 work so far: period-class
// slacks read and demand step points generated by Reset, Add and Remove.
func (inc *Incremental) WorkCounts() (classScans, stepPoints int) {
	return inc.cv.classScans, inc.cv.stepPoints
}
