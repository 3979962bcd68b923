// Package acctid exercises the accounting-identity prover in both
// owner modes: a struct owner (sites are field increments) and an enum
// owner (sites are constants passed to calls).
package acctid

//thermlint:identity counters: submitted = completed + failed
type counters struct {
	submitted counter
	completed counter
	failed    counter
	other     counter
}

type counter struct{ n uint64 }

func (c *counter) Inc() { c.n++ }

func (cs *counters) inc(c *counter) { c.Inc() }

// finish is the exactly-once settlement transition: it reports true
// for exactly one caller per obligation.
//
//thermlint:settleonce
func (cs *counters) finish() bool { return cs.n() == 0 }

func (cs *counters) n() uint64 { return cs.other.n }

func cond() bool { return true }

// paired settles its obligation on every path.
func paired(cs *counters, ok bool) {
	cs.inc(&cs.submitted)
	if ok {
		cs.inc(&cs.completed)
		return
	}
	cs.inc(&cs.failed)
}

// otherFieldFree shows non-member fields are out of scope.
func otherFieldFree(cs *counters) {
	cs.inc(&cs.other)
}

func leakyReturn(cs *counters) {
	cs.inc(&cs.submitted)
	return // want "return leaves 1 unsettled \"submitted\" increment"
}

func divergent(cs *counters) {
	cs.inc(&cs.submitted)
	if cond() { // want "paths disagree on unsettled \"submitted\" increments"
		cs.inc(&cs.completed)
	}
	cs.other.Inc()
}

func handoff(cs *counters) {
	cs.inc(&cs.submitted)
	//thermlint:handoff -- settled later by the worker's finish guard
	return
}

func leakyLoop(cs *counters) {
	for i := 0; i < 3; i++ { // want "loop iteration ends with 1 unsettled \"submitted\" increment"
		cs.inc(&cs.submitted)
	}
}

func pairedLoop(cs *counters, oks []bool) {
	for _, ok := range oks {
		cs.inc(&cs.submitted)
		if ok {
			cs.inc(&cs.completed)
			continue
		}
		cs.inc(&cs.failed)
	}
}

func unguardedSettle(cs *counters) {
	cs.failed.Inc() // want "\"failed\" incremented with no open \"submitted\" obligation"
}

func guardedSettle(cs *counters) {
	if cs.finish() {
		cs.completed.Inc()
	}
}

func negatedGuardSettle(cs *counters) {
	if !cs.finish() {
		return
	}
	cs.failed.Inc()
}

//thermlint:identity evKind: evSubmit = evDone + evFail
type evKind int

const (
	evSubmit evKind = iota
	evDone
	evFail
	evOther
)

func emit(k evKind) {}

func constPaired() {
	emit(evSubmit)
	emit(evDone)
}

func constLeaky() {
	emit(evSubmit)
	emit(evOther)
	return // want "return leaves 1 unsettled \"evSubmit\" increment"
}

func constSwitch(n int) {
	emit(evSubmit)
	switch n {
	case 0:
		emit(evDone)
	case 1:
		emit(evFail)
	default:
		emit(evFail)
	}
}
