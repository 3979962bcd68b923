// Package acctid exercises the callers rule: a ledger whose two sides
// move only through pinned helpers, used from allowed and disallowed
// places.
package acctid

type outcome int

const (
	done outcome = iota
	failed
)

type ledger struct {
	submitted uint64
	outcomes  [2]uint64
}

// answered counts a submission and its outcome in one step.
//
//thermlint:callers admit
func (l *ledger) answered(o outcome) {
	l.submitted++
	l.outcomes[o]++
}

// accepted counts a submission whose outcome comes later.
//
//thermlint:callers admit -- the hand-off to the worker
func (l *ledger) accepted() { l.submitted++ }

// settled counts the outcome of an accepted submission.
//
//thermlint:callers settle
func (l *ledger) settled(o outcome) { l.outcomes[o]++ }

// admit and settle are the allowed callers, including from a closure.
func admit(l *ledger, cached bool) {
	if cached {
		l.answered(done)
		return
	}
	l.accepted()
}

func settle(l *ledger, ok bool) {
	count := func(o outcome) { l.settled(o) }
	if ok {
		count(done)
		return
	}
	count(failed)
}

// runJob settles on its own instead of going through settle.
func runJob(l *ledger) {
	l.settled(done) // want "settled used in runJob; //thermlint:callers allows it only in settle"
}

// leak hands the helper out as a method value, so anyone may call it.
func leak(l *ledger) func(outcome) {
	return l.answered // want "answered used in leak; //thermlint:callers allows it only in admit"
}

var pkgLevel = (*ledger).accepted // want "accepted used at package level"

// Directives that name nothing, or a function that does not exist,
// are findings: a stale list would pin nothing.
//
//thermlint:callers // want "callers directive on unnamed names no function"
func unnamed() {}

//thermlint:callers admitt // want "callers directive on typo names admitt, which is not a function of this package"
func typo() {}

// A counter identity over anything but metric keys is no longer
// checked, so declaring one is a finding.
//
//thermlint:identity ledger: submitted = done + failed // want "identity owner \"ledger\" is not checked"
type unchecked struct{}
