// Package cli is the one entry shape every command shares: a flag set that
// returns its errors instead of exiting, and one mapping from how a run
// ended to the process's exit status. A command's main only sets up the
// signal context and exits with what its run returns; run writes only to the
// writers it is given, so a test calls it directly.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
)

// usageError is an error in how a command was invoked, not in its work.
type usageError struct{ error }

// Usagef returns a usage error: Run exits 2 on it.
func Usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// NewFlagSet returns an empty flag set for the command name whose parse
// errors and -h usage go to stderr.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Run parses args into fs, runs body, and returns the exit status: 0 on
// success and for -h; 2 on a flag the set rejects (which it has reported,
// with the usage) or on a Usagef error; 130 on any error once ctx is done;
// 1 on any other error. An error is reported on fs's output as
// "<name>: <error>", an interruption as "<name>: interrupted: <error>".
func Run(ctx context.Context, fs *flag.FlagSet, args []string, body func() error) int {
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	err := body()
	if err == nil {
		return 0
	}
	status, prefix := 1, ""
	if errors.As(err, new(usageError)) {
		status = 2
	} else if ctx.Err() != nil {
		status, prefix = 130, "interrupted: "
	}
	fmt.Fprintf(fs.Output(), "%s: %s%v\n", fs.Name(), prefix, err)
	return status
}
