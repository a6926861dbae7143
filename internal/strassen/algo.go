package strassen

// Algorithm selection: which coefficient table (internal/algo) drives the
// recursion. Resolution follows the PR 5 dispatch-policy precedence — an
// explicit Config.Algo beats the DGEFMM_ALGO environment variable, which
// beats the default — mirroring the kernel and fused-mode policies.

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/algo"
)

// AlgoAuto is the per-shape selection spelling: each DGEFMM call picks
// the registered table whose split ratios best match its operand aspect
// (algo.Select).
const AlgoAuto = "auto"

// ParseAlgo validates a -algo flag value and returns its canonical
// spelling: "" (the default Winograd path), "auto", or a registered table
// name.
func ParseAlgo(s string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(s))
	switch n {
	case "", "default":
		return "", nil
	case AlgoAuto:
		return AlgoAuto, nil
	}
	if _, ok := algo.ByName(n); ok {
		return n, nil
	}
	return "", fmt.Errorf("unknown algorithm %q (want auto|default|%s)", s, strings.Join(algo.Names(), "|"))
}

// envAlgo returns the cached DGEFMM_ALGO override ("" when unset).
// Unknown values are reported once on stderr and ignored, mirroring the
// DGEFMM_KERNEL and DGEFMM_FUSED handling.
var envAlgo = sync.OnceValue(func() string {
	return normalizeEnvAlgo(os.Getenv("DGEFMM_ALGO"))
})

// normalizeEnvAlgo validates a DGEFMM_ALGO value. Split from the cached
// reader so tests can drive it directly.
func normalizeEnvAlgo(v string) string {
	n, err := ParseAlgo(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "strassen: ignoring unknown DGEFMM_ALGO=%q (want auto|default|%s)\n",
			v, strings.Join(algo.Names(), "|"))
		return ""
	}
	return n
}

// algoName resolves the effective algorithm selection: Config.Algo wins,
// then DGEFMM_ALGO, then the default ("").
func (cfg *Config) algoName() string { return cfg.algoNameFor(envAlgo()) }

// algoNameFor is algoName with the environment override passed explicitly.
func (cfg *Config) algoNameFor(env string) string {
	if cfg.Algo != "" {
		n, err := ParseAlgo(cfg.Algo)
		if err != nil {
			panic("strassen: " + err.Error())
		}
		if n == "" {
			// "default" spelled explicitly still beats the environment.
			return algo.DefaultName
		}
		return n
	}
	return env
}

// AlgoSelection reports the effective algorithm selection as CLI tools
// log it: "default", "auto", or a table name.
func (cfg *Config) AlgoSelection() string {
	switch n := cfg.algoName(); n {
	case "", algo.DefaultName:
		return "default"
	default:
		return n
	}
}

// resolveAlgo returns the table driving an m×k·k×n call, or nil for the
// default Winograd path (selected by default, by naming the default table,
// and by auto-selection landing on it — the paper's STRASSEN1/STRASSEN2
// schedules are the default table's tuned programs).
func (cfg *Config) resolveAlgo(m, k, n int) *algo.Table {
	switch name := cfg.algoName(); name {
	case "", algo.DefaultName:
		return nil
	case AlgoAuto:
		t := algo.Select(m, k, n)
		if t.Name == algo.DefaultName {
			return nil
		}
		return t
	default:
		t, ok := algo.ByName(name)
		if !ok {
			panic(fmt.Sprintf("strassen: algorithm table %q disappeared from the registry", name))
		}
		return t
	}
}

// AlgoNames returns the selectable -algo values (the registered tables),
// sorted, for CLI usage strings.
func AlgoNames() []string {
	names := algo.Names()
	sort.Strings(names)
	return names
}
