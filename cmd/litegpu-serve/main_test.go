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

// bin is the litegpu-serve binary built from this package for the
// tests; the goldens compare its stdout, so they pin the command as a
// user runs it: flag parsing, defaults and every printed line.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "litegpu-serve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "litegpu-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build litegpu-serve: %v\n%s", err, out)
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

// cliGoldens are small invocations covering each mode of the command;
// each one's stdout is pinned in testdata/<name>.txt. Regenerate (only
// when knowingly changing output) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./cmd/litegpu-serve
var cliGoldens = []struct{ name, args string }{
	{"single", "-horizon 120"},
	{"second-gpu-jsq", "-horizon 120 -second-gpu Lite -router jsq"},
	{"telemetry-bare", "-rate 40 -horizon 60 -flash 20:20:3 -client-timeout 15 -client-retries 1 -admission adaptive -queue-limit 24"},
	{"telemetry-observed", "-rate 40 -horizon 60 -flash 20:20:3 -client-timeout 15 -client-retries 1 -admission adaptive -queue-limit 24 " +
		"-trace-out timeline.json -probe-interval 5 -probe-out probes.csv"},
	{"failures", "-horizon 120 -afr 0.09 -spares 2 -failure-timescale 1e6"},
	{"chunked-tenants", "-horizon 60 -scheduler chunked -prefill-chunk 256 -tenants paid:conversation:5:1,free:coding:10:0"},
	{"kv-fabric", "-horizon 60 -gpu Lite -prefill-gpus 8 -decode-gpus 8 -workload agent -kv swap+prefix -kv-blocks 4000 -fabric clos -link pluggable -fabric-latency-scale 2"},
	{"autoscale", "-horizon 120 -decode-instances 4 -autoscale -flash 60:60:4 -rate 12 -max-decode-batch 8"},
	{"plan-scheduler-auto-explain", "-plan -gpu Lite -model Llama3-8B -rate 20 -horizon 60 -scheduler auto -explain"},
	{"plan-fabric-kv-lists", "-plan -gpu Lite -model Llama3-8B -rate 10 -horizon 60 -fabric off,clos:pluggable -kv off,recompute"},
	{"plan-admission-auto", "-plan -gpu Lite -model Llama3-8B -rate 20 -horizon 60 -client-timeout 30 -admission auto -queue-limit 64"},
}

func TestCLIGoldens(t *testing.T) {
	for _, tc := range cliGoldens {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runCLI(t, tc.args)
			if err != nil {
				t.Fatalf("litegpu-serve %s: %v\n%s", tc.args, err, stderr)
			}
			compareGolden(t, filepath.Join("testdata", tc.name+".txt"), stdout)
		})
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

// TestCLIRejects pins the flag combinations litegpu-serve refuses
// instead of silently ignoring: a tuning knob with no candidate to act
// on, and a list or auto for an axis outside -plan.
func TestCLIRejects(t *testing.T) {
	for _, tc := range []struct{ args, wantErr string }{
		{"-kv off -kv-blocks 300", "-kv-blocks only applies with an enabled -kv"},
		{"-kv-block-tokens 32", "-kv-block-tokens only applies with an enabled -kv"},
		{"-fabric off -fabric-latency-scale 2", "-fabric-latency-scale only applies with an enabled -fabric"},
		{"-link cpo", "-link only applies with an enabled -fabric"},
		{"-plan -fabric auto -link copper", "-link only applies with an enabled -fabric spec that omits its link"},
		{"-fabric clos:cpo -link copper", "-link only applies with an enabled -fabric spec that omits its link"},
		{"-queue-limit 7", "-queue-limit only applies with a gated -admission"},
		{"-plan -admission none -queue-limit 7", "-queue-limit only applies with a gated -admission"},
		{"-plan -kv off -kv-blocks 300", "-kv-blocks only applies with an enabled -kv"},
		{"-scheduler auto", "-scheduler takes exactly one value without -plan"},
		{"-fabric off,clos", "-fabric takes exactly one value without -plan"},
		{"-kv auto", "-kv takes exactly one value without -plan"},
		{"-admission none,adaptive -queue-limit 8", "-admission takes exactly one value without -plan"},
		{"-scheduler static,bogus -plan", "-scheduler: "},
	} {
		stdout, stderr, err := runCLI(t, tc.args)
		if err == nil || !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("litegpu-serve %s: err %v, stderr %q; want failure mentioning %q", tc.args, err, stderr, tc.wantErr)
		}
		if stdout != "" {
			t.Errorf("litegpu-serve %s: printed %q before failing", tc.args, stdout)
		}
	}
}

// TestCLIAcceptsKnobsOnEnabledAxes is TestCLIRejects' counterpart: the
// same knobs run once their axis is on, in a serving run and in a plan
// whose candidate list mixes an off and an on setting.
func TestCLIAcceptsKnobsOnEnabledAxes(t *testing.T) {
	for _, args := range []string{
		"-horizon 30 -model Llama3-8B -prefill-gpus 1 -decode-gpus 1 -kv recompute -kv-blocks 3000 -kv-block-tokens 32",
		"-horizon 30 -fabric clos -link pluggable -fabric-latency-scale 2",
		"-plan -horizon 30 -gpu Lite -model Llama3-8B -rate 4 -kv off,recompute -kv-blocks 3000 -fabric off,clos -link cpo",
	} {
		if _, stderr, err := runCLI(t, args); err != nil {
			t.Errorf("litegpu-serve %s: %v\n%s", args, err, stderr)
		}
	}
}
