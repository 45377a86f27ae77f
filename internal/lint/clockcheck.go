package lint

import (
	"go/ast"
	"strings"

	"drugtree/internal/lint/analysis"
)

// deterministicPkgs are the packages whose behavior must be
// reproducible under a netsim.VirtualClock: fault schedules, retry
// backoff, breaker cooldowns, experiment timings, and the mobile
// session all run on injected time so scripted timelines (T8) and
// latency measurements (T1–T7, F2–F4) are exact under test.
var deterministicPkgs = []string{
	"netsim", "source", "integrate", "experiments", "query", "mobile", "admission", "shard",
}

// wallClockShims are the only files in deterministic packages allowed
// to touch the real clock: the netsim wall-clock implementation
// behind the Clock interface, the real-mode link shaping (which by
// definition models time with time), and the mobile server's deadline
// base. Everything else must inject netsim.Clock.
var wallClockShims = []string{
	"internal/netsim/clock.go",
	"internal/netsim/netsim.go",
	"internal/netsim/conn.go",
	"internal/mobile/wallclock.go",
	// The admission limiter converts context.Context wall-time
	// deadlines into remaining budgets; that one read lives in a
	// dedicated shim.
	"internal/admission/wallclock.go",
}

// wallClockFuncs are the time package's wall-clock entry points.
// time.Duration arithmetic and constants remain free.
var wallClockFuncs = []string{
	"Now", "Sleep", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick", "Since", "Until",
}

// ClockCheck enforces the clock-injection invariant from PR 2: code
// in deterministic packages must read and advance time through an
// injectable netsim.Clock, never the process wall clock, so that
// scripted fault timelines and latency measurements replay exactly.
var ClockCheck = &analysis.Analyzer{
	Name: "clockcheck",
	Doc: "forbid wall-clock calls (time.Now, time.Sleep, ...) in deterministic packages; " +
		"inject netsim.Clock so fault schedules and measurements replay under a virtual clock",
	Run: eachPackage(runClockCheck),
}

func runClockCheck(pass *analysis.Pass) {
	if !anySegment(pass.PkgPath, deterministicPkgs) {
		return
	}
	for i, f := range pass.Files {
		if isWallClockShim(pass.Filenames[i]) {
			continue
		}
		if _, ok := analysis.ImportName(f, "time"); !ok {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := analysis.IsPkgCall(f, call, "time", wallClockFuncs...); ok {
				pass.Reportf(call.Pos(),
					"time.%s in deterministic package %s; use an injected netsim.Clock (see internal/netsim/clock.go)",
					fn, pass.PkgPath)
			}
			return true
		})
	}
}

func isWallClockShim(filename string) bool {
	for _, shim := range wallClockShims {
		if strings.HasSuffix(filename, shim) {
			return true
		}
	}
	return false
}
