package core

import (
	"testing"

	"drugtree/internal/datagen"
)

// Test helpers for the external test package (ledger_test.go), which
// also imports internal/mobile, a package that imports this one.

// SmokeD1 is smokeD1: the smoke-sized dataset D1.
func SmokeD1() datagen.Config { return smokeD1() }

// BuildEngineFrom is buildEngineFrom: gen imported into a fresh store
// and an engine built over it with cfg.
func BuildEngineFrom(tb testing.TB, gen datagen.Config, cfg Config) *Engine {
	e, _ := buildEngineFrom(tb, gen, cfg)
	return e
}

// AnalyticsStatement is one statement of analyticsStatements: its
// class and text.
type AnalyticsStatement struct{ Class, Text string }

// AnalyticsStatements is analyticsStatements for an engine over smokeD1.
func AnalyticsStatements(tb testing.TB, e *Engine) []AnalyticsStatement {
	var out []AnalyticsStatement
	for _, s := range analyticsStatements(tb, e) {
		out = append(out, AnalyticsStatement{s.class, s.text})
	}
	return out
}
