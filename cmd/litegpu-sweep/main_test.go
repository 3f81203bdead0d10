package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the litegpu-sweep binary built from this package for the
// tests; the goldens compare its stdout, so they pin the command as a
// user runs it: flag parsing, defaults and every printed line.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "litegpu-sweep-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "litegpu-sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build litegpu-sweep: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the binary with args in a fresh directory (so export
// paths print as bare file names) and returns stdout and stderr.
func runCLI(t *testing.T, args string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(bin, strings.Fields(args)...)
	cmd.Dir = t.TempDir()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// cliGoldens are small invocations covering each axis of the command;
// each one's stdout is pinned in testdata/<name>.txt, and invocations
// that must print the same grid share a name. Regenerate (only
// when knowingly changing output) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./cmd/litegpu-sweep
var cliGoldens = []struct{ name, args string }{
	{"default", ""},
	{"default", "-workers 1"},
	{"small", "-gpus H100,Lite -models Llama3-8B -rates 0.5,2,8"},
	{"failures", "-gpus H100,Lite -models Llama3-8B -afr 0.09 -failure-timescale 1e6"},
	{"schedulers", "-gpus H100 -models Llama3-8B,Llama3-70B -scheduler static,continuous,chunked"},
	{"fabrics", "-gpus Lite -models Llama3-70B -fabric off,clos:pluggable,flat-circuit:cpo:circuit"},
	{"kv", "-gpus H100 -models Llama3-8B -workloads agent -kv off,recompute+prefix,swap+prefix"},
	{"admission", "-gpus H100 -models Llama3-8B -rates 4,16 -admission none,adaptive -queue-limit 48 -client-timeout 15"},
	{"single-values", "-gpus H100 -models Llama3-8B -scheduler continuous -fabric clos -link cpo -kv recompute -admission priority"},
	{"all-axes", "-gpus H100,Lite -models Llama3-8B -workloads coding,agent -rates 1,4 -scheduler static,chunked " +
		"-fabric off,clos:pluggable -kv off,recompute -admission none,adaptive -afr 0.09 -failure-timescale 1e6 " +
		"-client-timeout 15 -straggler-cv 0.1 -horizon 60 -drain 30"},
}

func TestCLIGoldens(t *testing.T) {
	for i, tc := range cliGoldens {
		t.Run(fmt.Sprintf("%d-%s", i, tc.name), func(t *testing.T) {
			stdout, stderr, err := runCLI(t, tc.args)
			if err != nil {
				t.Fatalf("litegpu-sweep %s: %v\n%s", tc.args, err, stderr)
			}
			compareGolden(t, filepath.Join("testdata", tc.name+".txt"), stdout)
		})
	}
}

// TestCLIRejects pins the knobs litegpu-sweep refuses instead of
// silently ignoring when no candidate of their axis takes them.
func TestCLIRejects(t *testing.T) {
	for _, tc := range []struct{ args, wantErr string }{
		{"-gpus H100 -models Llama3-8B -link copper", "-link only applies with an enabled -fabric spec that omits its link"},
		{"-gpus H100 -models Llama3-8B -fabric auto -link copper", "-link only applies with an enabled -fabric spec that omits its link"},
		{"-gpus H100 -models Llama3-8B -queue-limit 7", "-queue-limit only applies with a gated -admission"},
	} {
		stdout, stderr, err := runCLI(t, tc.args)
		if err == nil || !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("litegpu-sweep %s: err %v, stderr %q; want failure mentioning %q", tc.args, err, stderr, tc.wantErr)
		}
		if stdout != "" {
			t.Errorf("litegpu-sweep %s: printed %q before failing", tc.args, stdout)
		}
	}
}

// compareGolden checks (or, under LITEGPU_UPDATE_GOLDENS, rewrites) one
// pinned stdout capture.
func compareGolden(t *testing.T, file, got string) {
	t.Helper()
	if os.Getenv("LITEGPU_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("stdout differs from %s\n--- got\n%s--- want\n%s", file, got, want)
	}
}
