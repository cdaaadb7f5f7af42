package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"calibre/internal/eval"
)

// MethodAggregate is one (scenario, method) cross-seed view: the
// fairness-first numbers the sweep exists to produce.
type MethodAggregate struct {
	// Scenario is the grouping key (setting, scale and federation knobs —
	// method and seed stripped).
	Scenario string
	Method   string
	// Participants aggregates the per-seed participant summaries; Novel
	// likewise for the held-out cohort (Runs == 0 when the preset has no
	// novel clients).
	Participants eval.SeedAggregate
	Novel        eval.SeedAggregate
	// VarianceReduction is the percent reduction of this method's mean
	// fairness variance versus the grid baseline in the same scenario
	// (positive = fairer); HasBaseline reports whether a baseline
	// aggregate existed to compare against.
	VarianceReduction float64
	HasBaseline       bool
	// Pareto marks membership of the scenario's accuracy/fairness Pareto
	// front (maximize mean, minimize variance).
	Pareto bool
	// Aggregator, Adversary, AdvFrac and Availability echo the scenario's
	// hostile knobs (from any of its cells — knobs are part of the
	// scenario key, so they agree); BenignScenario is the scenario with
	// the adversary stripped — the honest twin the hostile-fairness table
	// compares against.
	Aggregator     string
	Adversary      string
	AdvFrac        float64
	Availability   string
	BenignScenario string
}

// Report is the fairness-first aggregation of a sweep: per-cell rows,
// cross-seed method aggregates with Pareto fronts, failures and pending
// cells. All derived content is a pure function of the cell outcomes in
// canonical order, so an interrupted-and-resumed sweep renders the exact
// bytes of an uninterrupted one.
type Report struct {
	Name        string
	Fingerprint string
	Baseline    string
	// Planned is the grid's total cell count.
	Planned int
	// Cells holds every recorded outcome, sorted by key.
	Cells []CellResult
	// Failures is the StatusFailed subset of Cells, same order.
	Failures []CellResult
	// Pending lists planned cells with no outcome (partial sweeps).
	Pending []string
	// Aggregates is sorted by scenario, then mean accuracy descending.
	Aggregates []MethodAggregate
}

// NewReport aggregates a sweep result into its report.
func NewReport(res *Result) *Report {
	r := &Report{
		Name:        res.Grid.Name,
		Fingerprint: res.Fingerprint,
		Baseline:    res.Grid.Baseline,
		Planned:     len(res.Cells) + len(res.Pending),
		Cells:       append([]CellResult(nil), res.Cells...),
		Pending:     append([]string(nil), res.Pending...),
	}
	sort.Slice(r.Cells, func(i, j int) bool { return r.Cells[i].Key < r.Cells[j].Key })
	type groupKey struct{ scenario, method string }
	groups := make(map[groupKey][]CellResult)
	for _, c := range r.Cells {
		if c.Status != StatusOK {
			r.Failures = append(r.Failures, c)
			continue
		}
		k := groupKey{c.Cell.Scenario(), c.Cell.Method}
		groups[k] = append(groups[k], c)
	}
	for k, cells := range groups {
		agg := MethodAggregate{Scenario: k.scenario, Method: k.method}
		cell := cells[0].Cell
		agg.Aggregator = cell.Aggregator
		if agg.Aggregator == "" {
			agg.Aggregator = "mean"
		}
		agg.Adversary = cell.Adversary
		agg.AdvFrac = cell.AdvFrac
		agg.Availability = cell.Availability
		benign := cell
		benign.Adversary, benign.AdvFrac = "", 0
		agg.BenignScenario = benign.Scenario()
		var parts, novel []eval.Summary
		for _, c := range cells {
			parts = append(parts, c.Participants)
			if c.Novel.N > 0 {
				novel = append(novel, c.Novel)
			}
		}
		agg.Participants = eval.AggregateSeeds(parts)
		agg.Novel = eval.AggregateSeeds(novel)
		r.Aggregates = append(r.Aggregates, agg)
	}
	// Baseline comparison: each scenario's methods measure their mean
	// fairness variance against the baseline method's in that scenario.
	if r.Baseline != "" {
		base := make(map[string]float64)
		for _, a := range r.Aggregates {
			if a.Method == r.Baseline {
				base[a.Scenario] = a.Participants.MeanVariance
			}
		}
		for i, a := range r.Aggregates {
			if b, ok := base[a.Scenario]; ok {
				r.Aggregates[i].VarianceReduction = eval.VarianceReductionOf(a.Participants.MeanVariance, b)
				r.Aggregates[i].HasBaseline = true
			}
		}
	}
	// Pareto fronts, one per scenario.
	byScenario := make(map[string][]eval.ParetoPoint)
	for _, a := range r.Aggregates {
		byScenario[a.Scenario] = append(byScenario[a.Scenario], eval.ParetoPoint{
			Label: a.Method, Mean: a.Participants.MeanOfMeans, Variance: a.Participants.MeanVariance,
		})
	}
	onFront := make(map[groupKey]bool)
	for scenario, points := range byScenario {
		for _, p := range eval.ParetoFront(points) {
			onFront[groupKey{scenario, p.Label}] = true
		}
	}
	for i, a := range r.Aggregates {
		r.Aggregates[i].Pareto = onFront[groupKey{a.Scenario, a.Method}]
	}
	sort.Slice(r.Aggregates, func(i, j int) bool {
		a, b := r.Aggregates[i], r.Aggregates[j]
		switch {
		case a.Scenario != b.Scenario:
			return a.Scenario < b.Scenario
		case a.Participants.MeanOfMeans != b.Participants.MeanOfMeans:
			return a.Participants.MeanOfMeans > b.Participants.MeanOfMeans
		default:
			return a.Method < b.Method
		}
	})
	return r
}

// f formats a float with full round-trip precision — the CSV analogue of
// the manifest's exact JSON floats, so diffing two sweep CSVs compares
// actual values, not renderings.
func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// cellsHeader is the sweep cells CSV schema, also consumed by
// ReadCellsCSV (and `calibre diff sweep`).
var cellsHeader = []string{
	"key", "method", "setting", "scale", "seed", "quorum", "dropout",
	"straggler", "aggregator", "adversary", "adversary_frac",
	"availability", "status", "rounds", "final_loss",
	"mean", "variance", "std", "bottom10",
	"novel_n", "novel_mean", "novel_variance", "novel_bottom10", "error",
}

// WriteCellsCSV emits one row per recorded cell, in canonical key order.
func (r *Report) WriteCellsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(cellsHeader); err != nil {
		return err
	}
	for _, c := range r.Cells {
		agg := c.Cell.Aggregator
		if agg == "" {
			agg = "mean"
		}
		row := []string{
			c.Key, c.Cell.Method, c.Cell.Setting, string(c.Cell.Scale),
			strconv.FormatInt(c.Cell.Seed, 10),
			strconv.Itoa(c.Cell.Quorum), f(c.Cell.Dropout), c.Cell.Straggler,
			agg, c.Cell.Adversary, f(c.Cell.AdvFrac), c.Cell.Availability,
			c.Status, strconv.Itoa(c.Rounds), f(c.FinalLoss),
			f(c.Participants.Mean), f(c.Participants.Variance), f(c.Participants.Std), f(c.Participants.Bottom10),
			strconv.Itoa(c.Novel.N), f(c.Novel.Mean), f(c.Novel.Variance), f(c.Novel.Bottom10),
			c.Error,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMethodsCSV emits the cross-seed aggregate rows.
func (r *Report) WriteMethodsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"scenario", "method", "runs", "mean", "seed_var_of_mean",
		"fairness_var", "var_of_var", "bottom10",
		"novel_runs", "novel_mean", "novel_fairness_var",
		"var_reduction_vs_baseline_pct", "pareto",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, a := range r.Aggregates {
		vr := ""
		if a.HasBaseline {
			vr = f(a.VarianceReduction)
		}
		row := []string{
			a.Scenario, a.Method, strconv.Itoa(a.Participants.Runs),
			f(a.Participants.MeanOfMeans), f(a.Participants.VarOfMeans),
			f(a.Participants.MeanVariance), f(a.Participants.VarOfVariance),
			f(a.Participants.MeanBottom10),
			strconv.Itoa(a.Novel.Runs), f(a.Novel.MeanOfMeans), f(a.Novel.MeanVariance),
			vr, strconv.FormatBool(a.Pareto),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown renders the human-readable sweep report: one table per
// scenario (methods ranked by mean accuracy, fairness columns alongside),
// the scenario's Pareto front, then failures and pending cells.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "(unnamed)"
	}
	ok := len(r.Cells) - len(r.Failures)
	fmt.Fprintf(&b, "# Sweep report: %s\n\n", name)
	fmt.Fprintf(&b, "- fingerprint: `%s`\n", r.Fingerprint)
	fmt.Fprintf(&b, "- cells: %d planned, %d ok, %d failed, %d pending\n", r.Planned, ok, len(r.Failures), len(r.Pending))
	if r.Baseline != "" {
		fmt.Fprintf(&b, "- baseline: `%s` (Δvar%% = variance reduction vs it; positive = fairer)\n", r.Baseline)
	}
	var scenarios []string
	byScenario := make(map[string][]MethodAggregate)
	for _, a := range r.Aggregates {
		if _, seen := byScenario[a.Scenario]; !seen {
			scenarios = append(scenarios, a.Scenario)
		}
		byScenario[a.Scenario] = append(byScenario[a.Scenario], a)
	}
	for _, scenario := range scenarios {
		fmt.Fprintf(&b, "\n## %s\n\n", scenario)
		b.WriteString("| method | seeds | mean | ±seeds | fairness var | var-of-var | bottom10 | novel mean |")
		if r.Baseline != "" {
			b.WriteString(" Δvar% |")
		}
		b.WriteString(" pareto |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|")
		if r.Baseline != "" {
			b.WriteString("---|")
		}
		b.WriteString("---|\n")
		for _, a := range byScenario[scenario] {
			novel := "—"
			if a.Novel.Runs > 0 {
				novel = fmt.Sprintf("%.4f", a.Novel.MeanOfMeans)
			}
			fmt.Fprintf(&b, "| %s | %d | %.4f | %.4f | %.5f | %.6f | %.4f | %s |",
				a.Method, a.Participants.Runs, a.Participants.MeanOfMeans,
				a.Participants.VarOfMeans, a.Participants.MeanVariance,
				a.Participants.VarOfVariance, a.Participants.MeanBottom10, novel)
			if r.Baseline != "" {
				if a.HasBaseline {
					fmt.Fprintf(&b, " %+.1f |", a.VarianceReduction)
				} else {
					b.WriteString(" — |")
				}
			}
			if a.Pareto {
				b.WriteString(" ★ |\n")
			} else {
				b.WriteString("  |\n")
			}
		}
		var front []string
		for _, a := range byScenario[scenario] {
			if a.Pareto {
				front = append(front, fmt.Sprintf("%s (mean %.4f, var %.5f)", a.Method, a.Participants.MeanOfMeans, a.Participants.MeanVariance))
			}
		}
		fmt.Fprintf(&b, "\nPareto front (mean vs variance): %s\n", strings.Join(front, "; "))
	}
	// Hostile fairness: every attacked (scenario, method) against its
	// honest twin — the same scenario with the adversary stripped — so the
	// table answers which method × aggregator pairs hold bottom-10%
	// accuracy under attack.
	type benignKey struct{ scenario, method string }
	benignAggs := make(map[benignKey]MethodAggregate)
	hostile := false
	for _, a := range r.Aggregates {
		if a.Adversary == "" {
			benignAggs[benignKey{a.Scenario, a.Method}] = a
		} else {
			hostile = true
		}
	}
	if hostile {
		b.WriteString("\n## Hostile fairness\n\n")
		b.WriteString("Bottom-10% client accuracy under attack vs the honest twin scenario (Δ = hostile − benign; closer to zero = more robust).\n\n")
		b.WriteString("| method | aggregator | adversary | frac | availability | mean | bottom10 | benign bottom10 | Δ bottom10 |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
		for _, a := range r.Aggregates {
			if a.Adversary == "" {
				continue
			}
			avail := a.Availability
			if avail == "" {
				avail = "—"
			}
			benignB10, delta := "—", "—"
			if ba, ok := benignAggs[benignKey{a.BenignScenario, a.Method}]; ok {
				benignB10 = fmt.Sprintf("%.4f", ba.Participants.MeanBottom10)
				delta = fmt.Sprintf("%+.4f", a.Participants.MeanBottom10-ba.Participants.MeanBottom10)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %g | %s | %.4f | %.4f | %s | %s |\n",
				a.Method, a.Aggregator, a.Adversary, a.AdvFrac, avail,
				a.Participants.MeanOfMeans, a.Participants.MeanBottom10, benignB10, delta)
		}
	}
	if len(r.Failures) > 0 {
		b.WriteString("\n## Failures\n\n| cell | error |\n|---|---|\n")
		for _, c := range r.Failures {
			// Cell keys (and errors quoting them) contain literal '|',
			// which splits markdown table cells even inside code spans.
			esc := func(s string) string {
				return strings.ReplaceAll(strings.ReplaceAll(s, "\n", " "), "|", "\\|")
			}
			fmt.Fprintf(&b, "| `%s` | %s |\n", esc(c.Key), esc(c.Error))
		}
	}
	if len(r.Pending) > 0 {
		b.WriteString("\n## Pending\n\n")
		for _, k := range r.Pending {
			fmt.Fprintf(&b, "- `%s`\n", k)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CellRow is one parsed row of a sweep cells CSV — what
// `calibre diff sweep` operates on.
type CellRow struct {
	Key, Method, Setting, Scale, Status string
	Seed                                int64
	Mean, Variance, Std, Bottom10       float64
}

// ReadCellsCSV parses a sweep cells CSV (as written by WriteCellsCSV).
// Columns are located by header name, so readers stay compatible when
// columns are appended.
func ReadCellsCSV(rd io.Reader) ([]CellRow, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sweep: read CSV header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[name] = i
	}
	for _, need := range []string{"key", "method", "status", "mean", "variance"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("sweep: CSV is not a sweep cells file: missing %q column", need)
		}
	}
	get := func(rec []string, name string) string {
		if i, ok := col[name]; ok && i < len(rec) {
			return rec[i]
		}
		return ""
	}
	var rows []CellRow
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: read CSV: %w", err)
		}
		row := CellRow{
			Key:     get(rec, "key"),
			Method:  get(rec, "method"),
			Setting: get(rec, "setting"),
			Scale:   get(rec, "scale"),
			Status:  get(rec, "status"),
		}
		row.Seed, _ = strconv.ParseInt(get(rec, "seed"), 10, 64)
		for _, fld := range []struct {
			name string
			dst  *float64
		}{
			{"mean", &row.Mean}, {"variance", &row.Variance},
			{"std", &row.Std}, {"bottom10", &row.Bottom10},
		} {
			v, err := strconv.ParseFloat(get(rec, fld.name), 64)
			if err != nil && get(rec, fld.name) != "" {
				return nil, fmt.Errorf("sweep: CSV row %q: bad %s: %w", row.Key, fld.name, err)
			}
			*fld.dst = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}
