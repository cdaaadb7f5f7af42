package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"calibre/internal/core"
	"calibre/internal/eval"
	"calibre/internal/fl"
	"calibre/internal/kmeans"
	"calibre/internal/tensor"
	"calibre/internal/tsne"
)

// Fig3Methods is the paper's full Fig. 3 method roster (20 methods).
func Fig3Methods() []string {
	return []string{
		"fedavg", "fedavg-ft", "script-fair", "script-convergent",
		"apfl", "ditto", "lg-fedavg", "fedper", "fedrep", "perfedavg",
		"scaffold", "scaffold-ft", "fedbabu", "fedema",
		"calibre-byol", "calibre-simsiam", "calibre-mocov2",
		"calibre-swav", "calibre-smog", "calibre-simclr",
	}
}

// Fig4Methods is the Fig. 4 roster (12 methods incl. pFL-SSL ablations).
func Fig4Methods() []string {
	return []string{
		"fedavg-ft", "script-convergent", "apfl", "lg-fedavg", "fedper",
		"fedrep", "fedbabu", "fedema",
		"pfl-mocov2", "pfl-simclr", "calibre-mocov2", "calibre-simclr",
	}
}

// SettingReport is all methods' results on one setting.
type SettingReport struct {
	Setting string
	Results []eval.MethodResult
	// Novel holds results on held-out clients (Fig. 4's right panels).
	Novel []eval.MethodResult
}

// EmbeddingResult quantifies one method's representation geometry and
// carries the 2-D t-SNE points for plotting.
type EmbeddingResult struct {
	Method string
	// Silhouette of the (high-dimensional) features under true labels:
	// the quantitative version of "crisp vs fuzzy class boundaries".
	Silhouette float64
	// IntraInter is mean intra-class distance / mean inter-class distance.
	IntraInter float64
	// Purity of a KMeans clustering (K = #classes) against true labels.
	Purity float64
	// Points is the n×2 t-SNE embedding; Labels/Owners align with rows.
	Points *tensor.Tensor
	Labels []int
	Owners []int
	// PerClient carries the per-client close-ups of Figs. 2 and 6.
	PerClient []ClientEmbedding
}

// ClientEmbedding is one client's close-up: local representation quality
// plus its personalized accuracy.
type ClientEmbedding struct {
	ClientID   int
	Silhouette float64
	Accuracy   float64
}

// AblationRow is one Table I row: a regularizer combination evaluated for
// each Calibre SSL variant.
type AblationRow struct {
	UseLn, UseLp bool
	// Results maps SSL variant name → accuracy summary.
	Results map[string]eval.Summary
}

// Report is the output of one experiment run.
type Report struct {
	ID       string
	Title    string
	Scale    Scale
	Settings []SettingReport
	// Embeddings is populated by the t-SNE figures (1, 2, 5-8).
	Embeddings []EmbeddingResult
	// Ablation is populated by table1.
	Ablation []AblationRow
	// AblationVariants lists the SSL variants (column order) of Ablation.
	AblationVariants []string
}

// IDs lists all runnable experiment identifiers: the paper's artifacts
// (fig1..fig8, table1) plus this reproduction's design-choice ablation.
func IDs() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1", "design"}
}

// Run executes an experiment by paper label.
func Run(ctx context.Context, id string, scale Scale, seed int64) (*Report, error) {
	switch id {
	case "fig1":
		return runEmbeddingFigure(ctx, id, "t-SNE across clients: plain pFL-SSL has fuzzy boundaries",
			settingCIFAR10D(), []string{"pfl-simclr", "pfl-byol"}, scale, seed, 10, false)
	case "fig2":
		return runEmbeddingFigure(ctx, id, "t-SNE within clients: pFL-SSL per-client close-ups",
			settingCIFAR10D(), []string{"pfl-simclr", "pfl-byol"}, scale, seed, 10, true)
	case "fig3":
		return runAccuracyFigure(ctx, id, "Mean/variance of accuracy across Q- and D-non-IID settings",
			[]Setting{settingCIFAR10Q(), settingCIFAR100Q(), settingSTL10Q(), settingSTL10D()},
			Fig3Methods(), scale, seed, false)
	case "fig4":
		return runAccuracyFigure(ctx, id, "Mean/variance of accuracy incl. novel clients (D-non-IID)",
			[]Setting{settingCIFAR10D(), settingCIFAR100D()},
			Fig4Methods(), scale, seed, true)
	case "fig5":
		return runEmbeddingFigure(ctx, id, "t-SNE: calibrated vs plain SimSiam/MoCoV2",
			settingCIFAR10D(), []string{"pfl-simsiam", "pfl-mocov2", "calibre-simsiam", "calibre-mocov2"}, scale, seed, 6, false)
	case "fig6":
		return runEmbeddingFigure(ctx, id, "t-SNE: Calibre (SimCLR) vs Calibre (BYOL) with close-ups",
			settingCIFAR10D(), []string{"calibre-simclr", "calibre-byol"}, scale, seed, 6, true)
	case "fig7":
		return runEmbeddingFigure(ctx, id, "t-SNE: supervised pFL vs Calibre on CIFAR-10",
			settingCIFAR10D(), []string{"fedavg", "fedrep", "fedper", "fedbabu", "lg-fedavg", "calibre-simclr"}, scale, seed, 6, false)
	case "fig8":
		return runEmbeddingFigure(ctx, id, "t-SNE: supervised pFL vs Calibre on STL-10",
			settingSTL10Q(), []string{"fedavg", "fedrep", "fedper", "fedbabu", "lg-fedavg", "calibre-simclr"}, scale, seed, 6, false)
	case "table1":
		return runTable1(ctx, scale, seed)
	case "design":
		return runDesignAblation(ctx, scale, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
}

// DesignVariant builds a Calibre (SimCLR) method with one reproduction
// design choice toggled off (see ARCHITECTURE.md "Design choices").
// Supported variants:
// "full", "fixed-k", "no-gate", "no-filter", "no-warmup".
func DesignVariant(env *Environment, variant string) (*fl.Method, error) {
	cfg := core.DefaultConfig(env.Arch, "simclr", env.NumClasses)
	cfg.Train.Epochs = 2 * env.Preset.LocalEpochs
	cfg.Train.Augment = env.Augment
	cfg.Opts.WarmupRounds = warmupFor(env.Preset)
	switch variant {
	case "full":
	case "fixed-k":
		cfg.Opts.FixedK = true
	case "no-gate":
		cfg.Opts.NoQualityGate = true
	case "no-filter":
		cfg.Opts.KeepFrac = 0
	case "no-warmup":
		cfg.Opts.WarmupRounds = -1 // active from round 0
	default:
		return nil, fmt.Errorf("experiments: unknown design variant %q", variant)
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	m.Name = "calibre-simclr{" + variant + "}"
	return m, nil
}

// runDesignAblation evaluates the reproduction-specific design choices
// listed in ARCHITECTURE.md "Design choices" by switching each off in turn.
func runDesignAblation(ctx context.Context, scale Scale, seed int64) (*Report, error) {
	env, err := BuildEnvironment(settingCIFAR10Q(), scale, seed)
	if err != nil {
		return nil, err
	}
	env.Novel = nil
	report := &Report{
		ID:    "design",
		Title: "Design-choice ablation: adaptive K, quality gate, confidence filter, warm-up",
		Scale: scale,
	}
	sr := SettingReport{Setting: settingCIFAR10Q().Name}
	for _, variant := range []string{"full", "fixed-k", "no-gate", "no-filter", "no-warmup"} {
		m, err := DesignVariant(env, variant)
		if err != nil {
			return nil, err
		}
		out, err := RunBuiltMethod(ctx, env, m)
		if err != nil {
			return nil, err
		}
		sr.Results = append(sr.Results, out.Participants)
	}
	report.Settings = []SettingReport{sr}
	return report, nil
}

func runAccuracyFigure(ctx context.Context, id, title string, settings []Setting, methods []string, scale Scale, seed int64, novel bool) (*Report, error) {
	report := &Report{ID: id, Title: title, Scale: scale}
	for _, setting := range settings {
		env, err := BuildEnvironment(setting, scale, seed)
		if err != nil {
			return nil, err
		}
		if !novel {
			env.Novel = nil
		}
		sr := SettingReport{Setting: setting.Name}
		for _, m := range methods {
			out, err := RunMethod(ctx, env, m)
			if err != nil {
				return nil, err
			}
			sr.Results = append(sr.Results, out.Participants)
			if novel {
				sr.Novel = append(sr.Novel, out.Novel)
			}
		}
		report.Settings = append(report.Settings, sr)
	}
	return report, nil
}

func runEmbeddingFigure(ctx context.Context, id, title string, setting Setting, methods []string, scale Scale, seed int64, numClients int, closeups bool) (*Report, error) {
	env, err := BuildEnvironment(setting, scale, seed)
	if err != nil {
		return nil, err
	}
	env.Novel = nil
	if numClients > len(env.Participants) {
		numClients = len(env.Participants)
	}
	clientIdx := make([]int, numClients)
	for i := range clientIdx {
		clientIdx[i] = i
	}
	report := &Report{ID: id, Title: title, Scale: scale}
	sr := SettingReport{Setting: setting.Name}
	for _, m := range methods {
		out, err := RunMethod(ctx, env, m)
		if err != nil {
			return nil, err
		}
		sr.Results = append(sr.Results, out.Participants)
		emb, err := embeddingFor(env, m, out, clientIdx, closeups)
		if err != nil {
			return nil, err
		}
		report.Embeddings = append(report.Embeddings, *emb)
	}
	report.Settings = []SettingReport{sr}
	return report, nil
}

// maxEmbedPoints caps the t-SNE input size (exact t-SNE is O(n²)).
const maxEmbedPoints = 400

func embeddingFor(env *Environment, methodName string, out *MethodOutcome, clientIdx []int, closeups bool) (*EmbeddingResult, error) {
	fn, err := EncoderFor(env, methodName, out.Global)
	if err != nil {
		return nil, err
	}
	perClient := maxEmbedPoints / len(clientIdx)
	feats, labels, owners, err := ClientFeatures(env, fn, clientIdx, perClient)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.Seed + 7))
	res := &EmbeddingResult{
		Method:     methodName,
		Silhouette: kmeans.Silhouette(feats, labels),
		IntraInter: eval.IntraInterRatio(feats, labels),
		Labels:     labels,
		Owners:     owners,
	}
	if clus, err := kmeans.Run(rng, feats, kmeans.Config{K: env.NumClasses}); err == nil {
		if p, perr := eval.ClusterPurity(clus.Assign, labels); perr == nil {
			res.Purity = p
		}
	}
	cfg := tsne.DefaultConfig()
	cfg.Iters = tsneItersFor(env.Preset)
	points, err := tsne.Embed(rng, feats, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: t-SNE for %s: %w", methodName, err)
	}
	res.Points = points

	if closeups {
		res.PerClient = clientCloseups(env, fn, out, clientIdx)
	}
	return res, nil
}

func tsneItersFor(p Preset) int {
	switch {
	case p.Clients >= 100:
		return 300
	case p.Clients >= 20:
		return 150
	default:
		return 60
	}
}

func clientCloseups(env *Environment, fn func(*tensor.Tensor) *tensor.Tensor, out *MethodOutcome, clientIdx []int) []ClientEmbedding {
	// The paper highlights two representative clients (client-14 and
	// client-56 of 100); we take the median and worst clients among the
	// embedded subset by personalized accuracy.
	type ranked struct {
		idx int
		acc float64
	}
	rankedClients := make([]ranked, 0, len(clientIdx))
	for _, ci := range clientIdx {
		if ci < len(out.Participants.Accs) {
			rankedClients = append(rankedClients, ranked{ci, out.Participants.Accs[ci]})
		}
	}
	if len(rankedClients) == 0 {
		return nil
	}
	sort.Slice(rankedClients, func(i, j int) bool { return rankedClients[i].acc < rankedClients[j].acc })
	picks := []ranked{rankedClients[0]}
	if len(rankedClients) > 1 {
		picks = append(picks, rankedClients[len(rankedClients)/2])
	}
	var outStats []ClientEmbedding
	for _, p := range picks {
		c := env.Participants[p.idx]
		batch := tensor.New(c.Train.Len(), len(c.Train.X[0]))
		for i, r := range c.Train.X {
			batch.SetRow(i, r)
		}
		feats := fn(batch)
		outStats = append(outStats, ClientEmbedding{
			ClientID:   c.ID,
			Silhouette: kmeans.Silhouette(feats, c.Train.Y),
			Accuracy:   p.acc,
		})
	}
	return outStats
}

func runTable1(ctx context.Context, scale Scale, seed int64) (*Report, error) {
	env, err := BuildEnvironment(settingCIFAR10Q(), scale, seed)
	if err != nil {
		return nil, err
	}
	env.Novel = nil
	variants := []string{"simclr", "swav", "smog"}
	report := &Report{
		ID:               "table1",
		Title:            "Ablation of L_n and L_p on CIFAR-10 Q(2,500)",
		Scale:            scale,
		AblationVariants: variants,
	}
	for _, combo := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		row := AblationRow{UseLn: combo[0], UseLp: combo[1], Results: make(map[string]eval.Summary, len(variants))}
		for _, v := range variants {
			m, err := AblationVariant(env, v, combo[0], combo[1])
			if err != nil {
				return nil, err
			}
			out, err := RunBuiltMethod(ctx, env, m)
			if err != nil {
				return nil, err
			}
			row.Results[v] = out.Participants.Summary
		}
		report.Ablation = append(report.Ablation, row)
	}
	return report, nil
}
