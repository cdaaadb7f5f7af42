package health

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"sync"

	"calibre/internal/obs"
)

// Severity ranks an alert. Higher is worse.
type Severity int

const (
	// SevInfo marks advisory findings (a plateau, say) that need no
	// operator action.
	SevInfo Severity = iota
	// SevWarn marks trends that threaten the run's outcome if they
	// continue: loss divergence, fairness-gap drift, quorum erosion.
	SevWarn
	// SevCrit marks findings that already compromise the run: NaN/Inf
	// in the loss stream, or a client whose updates look adversarial.
	SevCrit
)

// String returns the fixed wire spelling: "info", "warn" or "crit".
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevCrit:
		return "crit"
	default:
		return "info"
	}
}

// MarshalJSON encodes the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the three string forms produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"info"`:
		*s = SevInfo
	case `"warn"`:
		*s = SevWarn
	case `"crit"`:
		*s = SevCrit
	default:
		return fmt.Errorf("health: unknown severity %s", b)
	}
	return nil
}

// Alert is one detector finding. Alerts are edge-triggered: a rule that
// stays in violation for ten rounds raises one alert when it first trips,
// not ten copies; it re-arms once the condition clears.
type Alert struct {
	// Rule is the detector that fired (one of the rule names accepted by
	// ParseRules).
	Rule string `json:"rule"`
	// Severity ranks the finding; see the Severity constants.
	Severity Severity `json:"severity"`
	// Round is the federation round at which the rule tripped.
	Round int `json:"round"`
	// Client is the implicated client ID, or -1 for federation-scoped
	// findings.
	Client int `json:"client"`
	// Value is the observed statistic and Threshold the bound it crossed.
	// Both are always finite (non-finite observations are described in
	// Message instead, keeping the JSON encodable).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Message is a human-readable one-liner.
	Message string `json:"message"`
}

// String renders the alert as one log line.
func (a Alert) String() string {
	if a.Client >= 0 {
		return fmt.Sprintf("[%s] round %d client %d · %s: %s", a.Severity, a.Round, a.Client, a.Rule, a.Message)
	}
	return fmt.Sprintf("[%s] round %d · %s: %s", a.Severity, a.Round, a.Rule, a.Message)
}

// ClientScore is one client's folded health: participation decay,
// straggler rate, update-norm outlier rounds and rejected updates
// combined into a [0,1] score (1 = healthy). The score is a pure
// function of the integer counters below plus the monitor's round
// counter, so it is bit-identical across runs that observed the same
// round stream.
type ClientScore struct {
	ID        int     `json:"id"`
	Score     float64 `json:"score"`
	Sampled   int     `json:"sampled"`
	Responded int     `json:"responded"`
	Straggled int     `json:"straggled,omitempty"`
	Outliers  int     `json:"outliers,omitempty"`
	Rejected  int     `json:"rejected,omitempty"`
	Suspect   bool    `json:"suspect,omitempty"`
}

// Diagnosis is the monitor's full verdict at one instant — what /healthz
// serves and `calibre doctor` renders.
type Diagnosis struct {
	// Rounds is the number of round samples observed.
	Rounds int `json:"rounds"`
	// Alerts lists raised alerts in raise order (oldest dropped beyond
	// the MaxAlerts bound; Dropped counts the losses).
	Alerts  []Alert `json:"alerts,omitempty"`
	Dropped int     `json:"alerts_dropped,omitempty"`
	// Critical counts SevCrit alerts ever raised (including dropped).
	Critical int `json:"critical"`
	// Suspects lists suspected-adversary client IDs in ascending order.
	Suspects []int `json:"suspects,omitempty"`
	// Clients ranks per-client scores least-healthy first (ties by ID).
	Clients []ClientScore `json:"clients,omitempty"`
}

// clientState is one client's row in the monitor's bounded LRU.
type clientState struct {
	id        int
	sampled   int
	responded int
	straggled int
	rejected  int
	outliers  int
	suspect   bool
	lastSeen  int // monitor round counter at last appearance
}

// decayRounds is the absence horizon for the participation-decay term of
// the client score: a client unseen for this many observed rounds is
// fully stale.
const decayRounds = 8

// ewmaAlpha is the smoothing factor of every trend detector's EWMA: the
// loss, the worst-decile loss gap and the straggler rate.
const ewmaAlpha = 0.3

// Monitor is the streaming detector engine. Feed it one obs.RoundSample
// per completed round via ObserveRound; read verdicts via Diagnosis. All
// methods are safe for concurrent use and safe on a nil receiver
// (observation becomes a no-op returning nil), so runtime code
// instruments unconditionally.
//
// Every detector is a pure function of the observed sample stream —
// wall-clock fields (DurationMS) are never read — so two runs that
// produce the same round stream produce bit-identical diagnoses
// regardless of worker counts or scheduling.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	rounds int

	lossInit bool
	lossEWMA float64
	bestLoss float64
	lossRing []float64

	gapInit bool
	gapEWMA float64

	stragInit      bool
	stragEWMA      float64
	deadlineStreak int

	clients   map[int]*list.Element
	clientsLL *list.List

	active map[string]bool

	alerts   []Alert
	dropped  int
	critical int
	suspects int

	scratch  []float64
	scratch2 []float64
}

// NewMonitor returns a monitor for cfg; nil cfg (or an all-zero one)
// means DefaultConfig. The config is copied and normalized (thresholds
// outside the range ParseRules accepts, zero included, get their
// defaults), so a shared Config can
// seed many independent monitors — the sweep scheduler builds one per
// cell this way.
func NewMonitor(cfg *Config) *Monitor {
	var c Config
	if cfg == nil {
		c = DefaultConfig()
	} else {
		c = *cfg
		c.normalize()
	}
	return &Monitor{
		cfg:       c,
		clients:   make(map[int]*list.Element),
		clientsLL: list.New(),
		active:    make(map[string]bool),
	}
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ObserveRound feeds one completed round through every enabled detector
// and returns the alerts that tripped this round (nil when none, and on
// a nil monitor). Samples must be fed in round order; the caller decides
// what a "round stream" is (one federation, one sweep cell, …).
func (m *Monitor) ObserveRound(s obs.RoundSample) []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rounds++

	var out []Alert

	emit := func(a Alert) {
		out = append(out, a)
		if a.Severity == SevCrit {
			m.critical++
		}
		m.alerts = append(m.alerts, a)
		if max := m.cfg.MaxAlerts; len(m.alerts) > max {
			over := len(m.alerts) - max
			m.alerts = append(m.alerts[:0], m.alerts[over:]...)
			m.dropped += over
		}
	}
	// edge implements rising-edge triggering: an alert fires when its
	// condition first becomes true and re-arms when it clears.
	edge := func(key string, firing bool, mk func() Alert) {
		if firing && !m.active[key] {
			m.active[key] = true
			emit(mk())
		} else if !firing {
			m.active[key] = false
		}
	}

	// Per-client accounting first, so the norm detector and scores see
	// this round's appearances.
	for _, c := range s.Clients {
		cs := m.client(c.ID)
		cs.sampled++
		cs.responded++
		cs.lastSeen = m.rounds
	}
	for _, id := range s.StragglerIDs {
		cs := m.client(id)
		cs.sampled++
		cs.straggled++
		cs.lastSeen = m.rounds
	}
	for _, id := range s.RejectedIDs {
		m.client(id).rejected++
	}
	m.evict()

	// non-finite: NaN/Inf anywhere in the loss/norm stream is already a
	// broken run.
	if m.cfg.NonFinite {
		bad := 0
		if !isFinite(s.MeanLoss) {
			bad++
		}
		for _, c := range s.Clients {
			if !isFinite(c.Loss) || !isFinite(c.Norm) {
				bad++
			}
		}
		edge("non-finite", bad > 0, func() Alert {
			return Alert{
				Rule: "non-finite", Severity: SevCrit, Round: s.Round, Client: -1,
				Value: float64(bad), Threshold: 0,
				Message: fmt.Sprintf("%d non-finite loss/norm value(s) observed — run is numerically broken", bad),
			}
		})
	}

	// Smoothed federation loss feeds both divergence and plateau. Only
	// finite losses fold into the EWMA so one NaN round cannot poison
	// every later verdict.
	if isFinite(s.MeanLoss) {
		if !m.lossInit {
			m.lossInit = true
			m.lossEWMA = s.MeanLoss
			m.bestLoss = s.MeanLoss
		} else {
			m.lossEWMA = ewmaAlpha*s.MeanLoss + (1-ewmaAlpha)*m.lossEWMA
		}
		if m.lossEWMA < m.bestLoss {
			m.bestLoss = m.lossEWMA
		}
		if m.cfg.Plateau {
			m.lossRing = append(m.lossRing, s.MeanLoss)
			if len(m.lossRing) > m.cfg.PlateauWindow {
				m.lossRing = append(m.lossRing[:0], m.lossRing[len(m.lossRing)-m.cfg.PlateauWindow:]...)
			}
		}
	}

	if m.cfg.Divergence && m.lossInit {
		rise := m.lossEWMA - m.bestLoss
		thr := m.cfg.DivergenceFactor * math.Max(math.Abs(m.bestLoss), 1e-9)
		firing := m.rounds > m.cfg.DivergenceWarmup && rise > thr
		edge("loss-divergence", firing, func() Alert {
			return Alert{
				Rule: "loss-divergence", Severity: SevWarn, Round: s.Round, Client: -1,
				Value: rise, Threshold: thr,
				Message: fmt.Sprintf("smoothed loss %.4g rose %.4g above its best %.4g (threshold %.4g)", m.lossEWMA, rise, m.bestLoss, thr),
			}
		})
	}

	if m.cfg.Plateau && len(m.lossRing) >= m.cfg.PlateauWindow {
		first, last := m.lossRing[0], m.lossRing[len(m.lossRing)-1]
		impr := (first - last) / math.Max(math.Abs(first), 1e-9)
		firing := impr >= 0 && impr < m.cfg.PlateauEps
		edge("plateau", firing, func() Alert {
			return Alert{
				Rule: "plateau", Severity: SevInfo, Round: s.Round, Client: -1,
				Value: impr, Threshold: m.cfg.PlateauEps,
				Message: fmt.Sprintf("loss improved %.4g over the last %d rounds (threshold %.4g) — training has flatlined", impr, m.cfg.PlateauWindow, m.cfg.PlateauEps),
			}
		})
	}

	// fairness-drift: trajectory of (mean of the worst decile's losses −
	// mean loss), smoothed, relative to the loss scale. A federation
	// whose tail clients fall behind shows a growing gap long before the
	// final fairness table does.
	if m.cfg.Fairness && len(s.Clients) > 0 {
		m.scratch = m.scratch[:0]
		ok := true
		var sum float64
		for _, c := range s.Clients {
			if !isFinite(c.Loss) {
				ok = false
				break
			}
			m.scratch = append(m.scratch, c.Loss)
			sum += c.Loss
		}
		if ok {
			sort.Sort(sort.Reverse(sort.Float64Slice(m.scratch)))
			k := (len(m.scratch) + 9) / 10
			var worst float64
			for _, v := range m.scratch[:k] {
				worst += v
			}
			gap := worst/float64(k) - sum/float64(len(m.scratch))
			if !m.gapInit {
				m.gapInit = true
				m.gapEWMA = gap
			} else {
				m.gapEWMA = ewmaAlpha*gap + (1-ewmaAlpha)*m.gapEWMA
			}
			thr := m.cfg.FairnessFactor * math.Max(math.Abs(m.lossEWMA), 1e-9)
			firing := m.rounds > m.cfg.FairnessWarmup && m.gapEWMA > thr
			edge("fairness-drift", firing, func() Alert {
				return Alert{
					Rule: "fairness-drift", Severity: SevWarn, Round: s.Round, Client: -1,
					Value: m.gapEWMA, Threshold: thr,
					Message: fmt.Sprintf("worst-decile loss gap %.4g exceeds %.4g (%.4g× the smoothed loss) — tail clients are falling behind", m.gapEWMA, thr, m.cfg.FairnessFactor),
				}
			})
		}
	}

	// norm-z: robust (median/MAD) modified z-score over this round's
	// update norms. Plain mean/σ breaks at the contamination levels that
	// matter (30% sign-flip attackers drag the mean toward themselves);
	// the median absolute deviation keeps honest clients near z≈0 and
	// attackers far outside any threshold.
	if m.cfg.NormZ && len(s.Clients) >= 4 {
		m.scratch = m.scratch[:0]
		ok := true
		for _, c := range s.Clients {
			if !isFinite(c.Norm) {
				ok = false
				break
			}
			m.scratch = append(m.scratch, c.Norm)
		}
		if ok {
			m.scratch2 = append(m.scratch2[:0], m.scratch...)
			sort.Float64s(m.scratch2)
			med := median(m.scratch2)
			for i, v := range m.scratch2 {
				m.scratch2[i] = math.Abs(v - med)
			}
			sort.Float64s(m.scratch2)
			mad := median(m.scratch2)
			if mad == 0 {
				// Degenerate cohort (≥half the norms identical): fall
				// back to the mean absolute deviation.
				var sum float64
				for _, v := range m.scratch2 {
					sum += v
				}
				mad = sum / float64(len(m.scratch2))
			}
			if mad > 0 {
				for i, c := range s.Clients {
					z := math.Abs(0.6745 * (m.scratch[i] - med) / mad)
					if z < m.cfg.NormZThreshold {
						continue
					}
					cs := m.client(c.ID)
					cs.outliers++
					if cs.outliers == m.cfg.SuspectAfter && !cs.suspect {
						cs.suspect = true
						m.suspects++
						id := c.ID
						emit(Alert{
							Rule: "norm-z", Severity: SevCrit, Round: s.Round, Client: id,
							Value: z, Threshold: m.cfg.NormZThreshold,
							Message: fmt.Sprintf("update norm %.4g is a robust z=%.3g outlier (threshold %.3g) in %d rounds — suspected adversary", m.scratch[i], z, m.cfg.NormZThreshold, cs.outliers),
						})
					}
				}
			}
		}
	}

	// quorum: straggler-rate EWMA and consecutive deadline-expired
	// rounds. Either trend means the federation is sliding from
	// everyone-responds to barely-quorum.
	if m.cfg.Quorum {
		if s.Participants > 0 {
			rate := float64(s.Stragglers) / float64(s.Participants)
			if !m.stragInit {
				m.stragInit = true
				m.stragEWMA = rate
			} else {
				m.stragEWMA = ewmaAlpha*rate + (1-ewmaAlpha)*m.stragEWMA
			}
			firing := m.rounds > m.cfg.QuorumWarmup && m.stragEWMA > m.cfg.QuorumStragglerRate
			edge("quorum-rate", firing, func() Alert {
				return Alert{
					Rule: "quorum", Severity: SevWarn, Round: s.Round, Client: -1,
					Value: m.stragEWMA, Threshold: m.cfg.QuorumStragglerRate,
					Message: fmt.Sprintf("smoothed straggler rate %.3g exceeds %.3g — rounds are closing on quorum, not consensus", m.stragEWMA, m.cfg.QuorumStragglerRate),
				}
			})
		}
		if s.DeadlineExpired {
			m.deadlineStreak++
		} else {
			m.deadlineStreak = 0
		}
		streak := m.deadlineStreak
		firing := streak >= m.cfg.QuorumWarmup && m.cfg.QuorumWarmup > 0
		edge("quorum-deadline", firing, func() Alert {
			return Alert{
				Rule: "quorum", Severity: SevWarn, Round: s.Round, Client: -1,
				Value: float64(streak), Threshold: float64(m.cfg.QuorumWarmup),
				Message: fmt.Sprintf("%d consecutive rounds closed by deadline expiry — the deadline budget no longer fits the cohort", streak),
			}
		})
	}

	return out
}

// client returns (creating if needed) the LRU row for id and marks it
// most-recently-used.
func (m *Monitor) client(id int) *clientState {
	if el, ok := m.clients[id]; ok {
		m.clientsLL.MoveToFront(el)
		return el.Value.(*clientState)
	}
	cs := &clientState{id: id}
	m.clients[id] = m.clientsLL.PushFront(cs)
	return cs
}

// evict trims the client table to its LRU bound. Suspect rows are
// retained preferentially: forgetting a flagged adversary because 4096
// honest clients touched the table since would defeat the detector.
func (m *Monitor) evict() {
	max := m.cfg.MaxClients
	for len(m.clients) > max {
		el := m.clientsLL.Back()
		// Walk forward past suspect rows; give up if everything left is
		// suspect (then the bound wins over retention).
		for el != nil && el.Value.(*clientState).suspect {
			el = el.Prev()
		}
		if el == nil {
			el = m.clientsLL.Back()
		}
		delete(m.clients, el.Value.(*clientState).id)
		m.clientsLL.Remove(el)
	}
}

// median of a sorted non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// SuspectCount returns the number of clients currently flagged as
// suspected adversaries (0 on nil).
func (m *Monitor) SuspectCount() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suspects
}

// Diagnosis snapshots the monitor's verdict: all retained alerts, the
// suspect set, and per-client scores ranked least-healthy first. The
// result is a deep copy and deterministic — equal observation streams
// yield byte-equal JSON encodings.
func (m *Monitor) Diagnosis() Diagnosis {
	if m == nil {
		return Diagnosis{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := Diagnosis{
		Rounds:   m.rounds,
		Dropped:  m.dropped,
		Critical: m.critical,
	}
	if len(m.alerts) > 0 {
		d.Alerts = append([]Alert(nil), m.alerts...)
	}
	for el := m.clientsLL.Front(); el != nil; el = el.Next() {
		cs := el.Value.(*clientState)
		d.Clients = append(d.Clients, m.score(cs))
		if cs.suspect {
			d.Suspects = append(d.Suspects, cs.id)
		}
	}
	sort.Ints(d.Suspects)
	sort.Slice(d.Clients, func(i, j int) bool {
		if d.Clients[i].Score != d.Clients[j].Score {
			return d.Clients[i].Score < d.Clients[j].Score
		}
		return d.Clients[i].ID < d.Clients[j].ID
	})
	return d
}

// score folds one client's counters into its [0,1] health score. The
// weights privilege the adversary signal (outlier rounds) over the
// availability signals (straggling, staleness).
func (m *Monitor) score(cs *clientState) ClientScore {
	sampled := cs.sampled
	if sampled < 1 {
		sampled = 1
	}
	responded := cs.responded
	if responded < 1 {
		responded = 1
	}
	outlierFrac := float64(cs.outliers) / float64(responded)
	stragRate := float64(cs.straggled) / float64(sampled)
	rejFrac := float64(cs.rejected) / float64(sampled)
	stale := float64(m.rounds-cs.lastSeen) / decayRounds
	if stale > 1 {
		stale = 1
	}
	if stale < 0 {
		stale = 0
	}
	penalty := 0.45*outlierFrac + 0.2*stragRate + 0.2*rejFrac + 0.15*stale
	if penalty > 1 {
		penalty = 1
	}
	return ClientScore{
		ID:        cs.id,
		Score:     1 - penalty,
		Sampled:   cs.sampled,
		Responded: cs.responded,
		Straggled: cs.straggled,
		Outliers:  cs.outliers,
		Rejected:  cs.rejected,
		Suspect:   cs.suspect,
	}
}
