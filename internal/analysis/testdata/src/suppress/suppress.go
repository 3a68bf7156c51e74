// Package suppress is the golden fixture for the //lint:ignore grammar
// (v2): a directive names exactly one real analyzer and carries a
// reason, and silences that analyzer on its own line and the line
// below. The blanket "all" form is rejected, unknown analyzer names are
// rejected, a missing reason is rejected, and a well-formed directive
// that suppresses nothing when its analyzer runs is reported as a dead
// suppression.
package suppress

import "time"

func traced() int64 {
	//lint:ignore determinism fixture-sanctioned wall-clock read
	return time.Now().UnixNano()
}

// otherAnalyzer's directive names an analyzer that does not run over
// this fixture: it neither covers the determinism finding nor counts as
// dead, because deadness is only judged for analyzers that actually ran.
func otherAnalyzer() int64 {
	//lint:ignore ctxflow wrong analyzer name does not cover determinism
	return time.Now().UnixNano() // want "time.Now in the compile path"
}

// retired names analyzers that were deleted: their directives are
// unknown-analyzer findings, not silent no-ops.
func retired() int {
	//lint:ignore lockset guarded by mu at every caller // want "names unknown analyzer \"lockset\""
	//lint:ignore noalloc scratch is reused // want "names unknown analyzer \"noalloc\""
	return 42
}

func missingReason() int64 {
	/* want "needs a reason" */  //lint:ignore determinism
	return time.Now().UnixNano() // want "time.Now in the compile path"
}

func unknownName() int64 {
	//lint:ignore determinsim typo in the analyzer name // want "names unknown analyzer \"determinsim\""
	return time.Now().UnixNano() // want "time.Now in the compile path"
}

func blanket() int64 {
	return time.Now().UnixNano() //lint:ignore all blanket waivers are rejected // want "time.Now in the compile path" // want "names no specific analyzer"
}

// dead's directive is well-formed and determinism runs here, but the
// covered lines are clean.
func dead() int64 {
	//lint:ignore determinism nothing here needs waiving // want "suppresses nothing \(dead suppression"
	return 42
}
