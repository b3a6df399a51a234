package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestRunStatus pins Run's one mapping from how a run ended to its exit
// status and to what it reports on the flag set's output.
func TestRunStatus(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		args   []string
		err    error
		want   int
		report string
	}{
		{"success", context.Background(), nil, nil, 0, ""},
		{"help", context.Background(), []string{"-h"}, nil, 0, "Usage of cmd:\n"},
		{"unknown flag", context.Background(), []string{"-nope"}, nil, 2, "flag provided but not defined: -nope\nUsage of cmd:\n"},
		{"usage error", context.Background(), nil, Usagef("-x is required"), 2, "cmd: -x is required\n"},
		{"wrapped usage error", cancelled, nil, fmt.Errorf("parsing: %w", Usagef("bad")), 2, "cmd: parsing: bad\n"},
		{"failure", context.Background(), nil, errors.New("disk full"), 1, "cmd: disk full\n"},
		{"interrupted", cancelled, nil, context.Canceled, 130, "cmd: interrupted: context canceled\n"},
		{"done but succeeded", cancelled, nil, nil, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			fs := NewFlagSet("cmd", &out)
			ran := false
			got := Run(tc.ctx, fs, tc.args, func() error { ran = true; return tc.err })
			if got != tc.want || out.String() != tc.report {
				t.Errorf("status %d, report %q; want %d, %q", got, out.String(), tc.want, tc.report)
			}
			if ran != (len(tc.args) == 0) {
				t.Errorf("body ran: %v, with args %v", ran, tc.args)
			}
		})
	}
}
