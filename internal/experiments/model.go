package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/perfmodel"
	"repro/internal/strassen"
)

// ModelRow is one machine's model-vs-measurement comparison.
type ModelRow struct {
	Machine        Machine
	Gemm, OneLevel perfmodel.Model
	Predicted      int
	Derived        int
	MeasuredTau    int
}

// Model runs the companion-report ([14]) exercise: fit the two-term cost
// model to DGEMM and one-level DGEFMM timings per machine stand-in, predict
// the square crossover from the fitted surfaces, and compare with (a) the
// crossover of the model *derived* analytically from the DGEMM fit and
// (b) the installed measured τ. The op-count model's prediction (13) is the
// common baseline all of them beat, which is the Section 3.4 argument for
// empirical tuning.
func Model(w io.Writer, sc Scale) []ModelRow {
	var rows []ModelRow
	for _, mach := range Machines() {
		kern := kernelOf(mach.Kernel)
		params := strassen.DefaultParams(mach.Kernel)
		hi := sc.sq(params.Tau*3, params.Tau*2)
		lo := maxi(8, params.Tau/4)
		step := maxi(4, (hi-lo)/10)
		var orders []int
		for m := lo; m <= hi; m += step {
			orders = append(orders, m)
		}
		gemmS, oneS := perfmodel.Collect(kern, orders, 41)
		gemmFit, err := perfmodel.Fit(gemmS)
		if err != nil {
			continue
		}
		oneFit, err := perfmodel.Fit(oneS)
		if err != nil {
			continue
		}
		rows = append(rows, ModelRow{
			Machine:     mach,
			Gemm:        gemmFit,
			OneLevel:    oneFit,
			Predicted:   perfmodel.PredictSquareCrossover(gemmFit, oneFit, 8, hi*2),
			Derived:     perfmodel.PredictSquareCrossover(gemmFit, perfmodel.StrassenOneLevelFromGemm(gemmFit), 8, hi*2),
			MeasuredTau: params.Tau,
		})
	}

	fprintln(w, "Performance model ([14]): fitted t ≈ c3·mkn + c2·(mk+kn+mn) + c0 and predicted crossovers")
	tb := bench.NewTable("machine", "gemm R²", "model-predicted τ+1", "derived-from-gemm τ+1", "measured τ", "op-count")
	for _, r := range rows {
		tb.AddRow(r.Machine.Paper, fmt.Sprintf("%.4f", r.Gemm.R2), r.Predicted, r.Derived, r.MeasuredTau, perfmodel.OpCountCrossover())
	}
	_, _ = tb.WriteTo(w)
	for _, r := range rows {
		fprintln(w, fmt.Sprintf("  %s gemm:      %v", r.Machine.Paper, r.Gemm))
		fprintln(w, fmt.Sprintf("  %s one-level: %v", r.Machine.Paper, r.OneLevel))
	}
	return rows
}
