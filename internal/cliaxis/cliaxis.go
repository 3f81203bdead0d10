// Package cliaxis parses the design-space axis flags that litegpu-serve
// and litegpu-sweep share, so every axis flag in both commands reads the
// same syntax: one value, a comma-separated list, or "auto" for the
// axis's default candidate set.
package cliaxis

import (
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
