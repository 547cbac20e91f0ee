// Package cli holds the exit-status conventions shared by the command-line
// tools: -h exits 0, usage and flag-parse errors exit 2, runtime errors
// (including budget aborts) exit 1.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"repro/internal/budget"
	"repro/internal/stg"
)

// Usage marks a flag-parse or usage error so Exit maps it to status 2. The
// flag package has already printed the diagnostic and usage text to the
// FlagSet's output (stderr by convention), so Exit stays silent for it.
type Usage struct{ Err error }

func (u Usage) Error() string { return u.Err.Error() }

func (u Usage) Unwrap() error { return u.Err }

// Parse runs fs.Parse and wraps any failure as a Usage error. Callers must
// have routed fs.SetOutput to stderr so the flag package's own diagnostics
// land there.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return Usage{Err: err}
	}
	return nil
}

// Recover converts a panic on the calling goroutine into a typed
// *budget.ErrInternal stored in *errp, so a panicking run exits through the
// normal runtime-error path (status 1, artifacts exported) instead of
// crashing the process with Go's panic status. Use as `defer cli.Recover(&err)`
// and register it BEFORE the instrumentation-export defer: defers run in
// LIFO order, so the export flushes while the panic unwinds and the recovery
// runs last — catching export panics too.
func Recover(errp *error) {
	if v := recover(); v != nil {
		*errp = budget.Internal(v, debug.Stack())
	}
}

// Exit terminates the process with the conventional status for err: 0 for
// nil or a help request, 2 for usage errors, 1 otherwise. name prefixes
// runtime diagnostics on stderr.
func Exit(name string, err error) {
	var usage Usage
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.As(err, &usage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// LoadSTG parses the .g specification at path, or from stdin when path is
// empty.
func LoadSTG(path string, stdin io.Reader) (*stg.STG, error) {
	r := stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return stg.ParseG(r)
}
