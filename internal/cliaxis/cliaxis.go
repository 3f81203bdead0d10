// Package cliaxis parses the design-space axis flags that litegpu-serve
// and litegpu-sweep share, so every axis flag in both commands reads the
// same syntax: one value, a comma-separated list, or "auto" for the
// axis's default candidate set.
package cliaxis

import (
	"flag"
	"fmt"
	"strings"
)

// Parse reads the value of axis flag -name. spec is one value, a
// comma-separated list (blank items are skipped, so an empty spec
// yields no values), or "auto", which yields auto(); an axis with no
// default candidate set passes a nil auto and rejects "auto". Each
// listed value goes through parse, and the first failure is returned
// naming the flag.
func Parse[T any](name, spec string, auto func() []T, parse func(string) (T, error)) ([]T, error) {
	if strings.TrimSpace(spec) == "auto" {
		if auto == nil {
			return nil, fmt.Errorf("-%s has no auto candidate set; list its values", name)
		}
		return auto(), nil
	}
	var out []T
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		v, err := parse(s)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Knob is a tuning flag that acts only on some candidates of an axis,
// such as -kv-blocks on the enabled -kv policies.
type Knob struct {
	// Flag is the knob's flag name, without the dash.
	Flag string
	// Needs completes the error "-Flag only applies with ...".
	Needs string
	// On reports whether some parsed candidate takes the knob.
	On bool
}

// CheckKnobs returns an error naming the first knob set explicitly on
// fs that has no candidate to act on: a knob with nothing to tune is an
// error, not a silent no-op. A knob left at its default is never
// rejected.
func CheckKnobs(fs *flag.FlagSet, knobs ...Knob) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, k := range knobs {
		if set[k.Flag] && !k.On {
			return fmt.Errorf("-%s only applies with %s", k.Flag, k.Needs)
		}
	}
	return nil
}
