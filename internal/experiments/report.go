package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"calibre/internal/eval"
)

// String renders a full human-readable report (the text analogue of the
// paper's figures/tables).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s (%s scale): %s ===\n", r.ID, r.Scale, r.Title)
	for _, sr := range r.Settings {
		fmt.Fprintf(&b, "\n--- setting %s ---\n", sr.Setting)
		writeResultsTable(&b, "participating clients", sr.Results)
		if len(sr.Novel) > 0 {
			writeResultsTable(&b, "novel clients", sr.Novel)
		}
	}
	if len(r.Embeddings) > 0 {
		fmt.Fprintf(&b, "\n--- representation quality (higher silhouette/purity, lower intra/inter = crisper class boundaries) ---\n")
		fmt.Fprintf(&b, "%-22s %12s %12s %10s\n", "method", "silhouette", "intra/inter", "purity")
		for _, e := range r.Embeddings {
			fmt.Fprintf(&b, "%-22s %12.4f %12.4f %10.4f\n", e.Method, e.Silhouette, e.IntraInter, e.Purity)
			for _, c := range e.PerClient {
				fmt.Fprintf(&b, "    client-%d: silhouette %.4f, accuracy %.3f\n", c.ClientID, c.Silhouette, c.Accuracy)
			}
		}
	}
	if len(r.Ablation) > 0 {
		fmt.Fprintf(&b, "\n%-6s %-6s", "L_n", "L_p")
		for _, v := range r.AblationVariants {
			fmt.Fprintf(&b, " %22s", "calibre-"+v)
		}
		b.WriteByte('\n')
		for _, row := range r.Ablation {
			fmt.Fprintf(&b, "%-6s %-6s", check(row.UseLn), check(row.UseLp))
			for _, v := range r.AblationVariants {
				s := row.Results[v]
				fmt.Fprintf(&b, "        %6.2f ± %-6.2f", s.Mean*100, s.Std*100)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func check(v bool) string {
	if v {
		return "yes"
	}
	return "-"
}

func writeResultsTable(b *strings.Builder, label string, results []eval.MethodResult) {
	fmt.Fprintf(b, "%s:\n", label)
	fmt.Fprintf(b, "%-22s %10s %10s %10s %10s\n", "method", "mean", "variance", "std", "bottom10")
	sorted := eval.RankByMean(results)
	for _, res := range sorted {
		s := res.Summary
		fmt.Fprintf(b, "%-22s %10.4f %10.4f %10.4f %10.4f\n", res.Method, s.Mean, s.Variance, s.Std, s.Bottom10)
	}
}

// WriteEmbeddingsCSV dumps t-SNE points as CSV: method,x,y,label,client.
// This is the plotting input for regenerating the paper's figures.
func WriteEmbeddingsCSV(w io.Writer, embeddings []EmbeddingResult) error {
	if _, err := fmt.Fprintln(w, "method,x,y,label,client"); err != nil {
		return err
	}
	for _, e := range embeddings {
		if e.Points == nil {
			continue
		}
		for i := 0; i < e.Points.Rows(); i++ {
			if _, err := fmt.Fprintf(w, "%s,%.6f,%.6f,%d,%d\n",
				e.Method, e.Points.At(i, 0), e.Points.At(i, 1), e.Labels[i], e.Owners[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteResultsCSV dumps per-method summaries: setting,cohort,method,mean,
// variance,std,bottom10.
func WriteResultsCSV(w io.Writer, r *Report) error {
	if _, err := fmt.Fprintln(w, "setting,cohort,method,mean,variance,std,bottom10"); err != nil {
		return err
	}
	writeRows := func(setting, cohort string, results []eval.MethodResult) error {
		sorted := append([]eval.MethodResult(nil), results...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Method < sorted[j].Method })
		for _, res := range sorted {
			s := res.Summary
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%.6f,%.6f,%.6f,%.6f\n",
				setting, cohort, res.Method, s.Mean, s.Variance, s.Std, s.Bottom10); err != nil {
				return err
			}
		}
		return nil
	}
	for _, sr := range r.Settings {
		if err := writeRows(sr.Setting, "participants", sr.Results); err != nil {
			return err
		}
		if err := writeRows(sr.Setting, "novel", sr.Novel); err != nil {
			return err
		}
	}
	return nil
}
