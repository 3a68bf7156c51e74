package himap

import (
	"errors"
	"fmt"
	"strings"

	"himap/internal/diag"
)

// CompileError is the structured failure of a whole compilation: every
// attempt of the speculative search failed, and the error aggregates the
// deterministic lowest-ranked attempt's failure (Primary) plus the
// best-ranked failure observed per pipeline stage. It reports the true
// attempt count, and — unlike a bare "last error wins" — its content is
// identical for every Workers value, because attempts are ranked by their
// sequential order, not by completion order.
//
// CompileError unwraps to Primary and to every per-stage failure, so
// errors.Is matches any failure class the search encountered and
// errors.As can recover the individual *diag.StageError records.
type CompileError struct {
	Kernel   string
	CGRA     string
	Attempts int                // total (sub-mapping, scheme) pairs tried
	Primary  *diag.StageError   // the lowest-ranked attempt's failure
	Stages   []*diag.StageError // best-ranked failure per stage, pipeline order
}

func (e *CompileError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "himap: compilation of %s on %s failed after %d attempt", e.Kernel, e.CGRA, e.Attempts)
	if e.Attempts != 1 {
		b.WriteByte('s')
	}
	if e.Primary != nil {
		fmt.Fprintf(&b, ": %v", e.Primary)
	}
	if len(e.Stages) > 1 {
		b.WriteString(" [also failed:")
		for _, se := range e.Stages {
			if se == e.Primary {
				continue
			}
			fmt.Fprintf(&b, " %s (attempt %d): %v;", se.Stage, se.Attempt, se.Class)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Unwrap exposes the primary failure and every per-stage best failure to
// errors.Is / errors.As.
func (e *CompileError) Unwrap() []error {
	var out []error
	if e.Primary != nil {
		out = append(out, e.Primary)
	}
	for _, se := range e.Stages {
		if se != e.Primary {
			out = append(out, se)
		}
	}
	return out
}

// canceledCompileError wraps a context cancellation (or deadline expiry)
// observed by the compile driver into a CompileError whose Primary is a
// diag.ErrCanceled StageError carrying the original context error, so
// errors.Is matches diag.ErrCanceled, context.Canceled, and
// context.DeadlineExceeded through the public API.
func canceledCompileError(kernel, cgra string, attempts int, cause error) *CompileError {
	se := diag.Fail(diag.ErrCanceled, cause).Stamp("", kernel, cgra, 0)
	return &CompileError{Kernel: kernel, CGRA: cgra, Attempts: attempts, Primary: se}
}

// newCompileError aggregates per-attempt failures into a CompileError.
// errs is indexed by attempt rank (0-based); scanning in index order makes
// Primary the deterministic lowest-ranked failure regardless of the
// order in which the speculative window finished the attempts.
func newCompileError(kernel, cgra string, attempts int, errs []error) *CompileError {
	e := &CompileError{Kernel: kernel, CGRA: cgra, Attempts: attempts}
	byStage := map[string]*diag.StageError{}
	for _, err := range errs {
		if err == nil {
			continue
		}
		var se *diag.StageError
		if !errors.As(err, &se) {
			se = diag.Fail(diag.ErrSchemeInfeasible, err).Stamp("", kernel, cgra, 0)
		}
		if e.Primary == nil {
			e.Primary = se
		}
		if _, seen := byStage[se.Stage]; !seen {
			byStage[se.Stage] = se
		}
	}
	for _, name := range stageOrder {
		if se, ok := byStage[name]; ok {
			e.Stages = append(e.Stages, se)
		}
	}
	return e
}
