// Package detect implements the network-side defenses the spoofing attack
// must evade. The sink audits charging telemetry — the sessions the charger
// performed and the energy gains nodes reported — plus the node-death
// record. Detectors never see simulation ground truth (whether a session
// was a spoof); they judge exactly what a real base station observes.
package detect

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// SessionObs is the telemetry one charging session leaves behind: the
// charger's claim (node, interval, requested energy) and the node's
// meter-reported gain.
type SessionObs struct {
	Node       wrsn.NodeID
	Start, End float64
	// RequestedJ is the energy the node's charging request asked for.
	RequestedJ float64
	// MeterGainJ is the battery gain the node's quantized meter reported
	// for the session.
	MeterGainJ float64
	// Solicited reports whether the node had a pending charging request
	// when the session started; the sink knows, since requests flow
	// through it.
	Solicited bool
}

// DeathObs records a node death the sink learned about.
type DeathObs struct {
	Node wrsn.NodeID
	Time float64
	// Reachable reports whether the node still had a route to the sink
	// when it died. Deaths inside a partitioned region are attributed to
	// the partition, not to the charger's scheduling.
	Reachable bool
}

// RequestObs records a charging request that never got a session.
type RequestObs struct {
	Node     wrsn.NodeID
	IssuedAt float64
	// NeedJ is the energy the request asked for.
	NeedJ float64
}

// Audit is the evidence window a detector judges.
type Audit struct {
	Sessions []SessionObs
	Deaths   []DeathObs
	// Unserved lists requests the charger ignored within the audit window;
	// they count against delivered utility.
	Unserved []RequestObs
}

// Detector scores an audit; higher scores are more suspicious, and an
// audit is flagged when the score reaches the detector's threshold.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// Score returns the suspicion statistic for the audit.
	Score(a Audit) float64
	// Threshold returns the flagging threshold on Score.
	Threshold() float64
}

// Flagged reports whether the detector fires on the audit.
func Flagged(d Detector, a Audit) bool { return d.Score(a) >= d.Threshold() }

// Compile-time interface compliance checks.
var (
	_ Detector = UtilityDetector{}
	_ Detector = GainDetector{}
	_ Detector = DeathDetector{}
	_ Detector = UnsolicitedDetector{}
	_ Detector = StarvationDetector{}
)

// UtilityDetector audits aggregate charging throughput: a legitimate
// charger delivers most of what was requested, so the shortfall
// 1 − ΣMeterGain/ΣRequested stays small. A charger that skips or spoofs
// much of its workload scores high. This is the detector the TIDE cover
// traffic exists to satisfy.
type UtilityDetector struct {
	// MaxShortfall is the flagging threshold on the shortfall ratio;
	// non-positive gets the default 0.4 (flag when less than 60% of
	// requested energy arrives).
	MaxShortfall float64
}

// Name implements Detector.
func (UtilityDetector) Name() string { return "utility-shortfall" }

// Threshold implements Detector.
func (d UtilityDetector) Threshold() float64 {
	if d.MaxShortfall <= 0 {
		return 0.4
	}
	return d.MaxShortfall
}

// Score implements Detector: the aggregate delivery shortfall in [0,1],
// where the denominator covers both served requests and requests the
// charger ignored. An audit with no demand at all but pending deaths
// scores 1 (a charger that never charges is maximally suspicious); a truly
// empty audit scores 0.
func (d UtilityDetector) Score(a Audit) float64 {
	var req, got float64
	for _, s := range a.Sessions {
		req += s.RequestedJ
		got += s.MeterGainJ
	}
	for _, u := range a.Unserved {
		req += u.NeedJ
	}
	if req <= 0 {
		if len(a.Deaths) > 0 {
			return 1
		}
		return 0
	}
	short := 1 - got/req
	if short < 0 {
		return 0
	}
	return short
}

// GainDetector audits per-node session outcomes: a session whose reported
// meter gain is at or below ZeroGainJ counts as a zero-gain session, and a
// node accumulating Trigger consecutive zero-gain sessions flags the
// charger. One bad session is routine (range, misalignment, meter
// quantization); repetition is not.
type GainDetector struct {
	// ZeroGainJ is the gain at or below which a session counts as failed;
	// non-positive gets 1 J (double the default meter quantum).
	ZeroGainJ float64
	// Trigger is the consecutive-failure count that flags; non-positive
	// gets 3 (two-in-a-row false-positives on benign session failures are
	// too common at realistic failure rates).
	Trigger int
}

// Name implements Detector.
func (GainDetector) Name() string { return "zero-gain-run" }

// Threshold implements Detector.
func (d GainDetector) Threshold() float64 {
	if d.Trigger <= 0 {
		return 3
	}
	return float64(d.Trigger)
}

// Score implements Detector: the longest consecutive zero-gain run at any
// single node, in start-time order.
func (d GainDetector) Score(a Audit) float64 {
	zero := d.ZeroGainJ
	if zero <= 0 {
		zero = 1
	}
	if longest, ok := zeroRunsInOrder(a.Sessions, zero); ok {
		return float64(longest)
	}
	return float64(zeroRunsSorted(a.Sessions, zero))
}

// zeroRunsInOrder is the one-pass form of the run scan, for the normal
// case where each node's sessions appear in strictly increasing start
// order (the session layer appends them as they complete). Sorting a
// node's sessions by start then yields exactly their input order, so
// one walk with per-node run state in a dense table scores the same.
// ok is false, and the caller falls back to zeroRunsSorted, when some
// node's starts are equal, out of order or NaN, or when node IDs do not
// fit a dense table (see denseNodes).
func zeroRunsInOrder(ss []SessionObs, zero float64) (longest int, ok bool) {
	n, ok := denseNodes(ss)
	if !ok {
		return 0, false
	}
	type nodeRun struct {
		last float64
		run  int32
		seen bool
	}
	runs := make([]nodeRun, n)
	for _, s := range ss {
		r := &runs[s.Node]
		if r.seen && !(s.Start > r.last) {
			return 0, false
		}
		r.last, r.seen = s.Start, true
		if s.MeterGainJ <= zero {
			r.run++
			longest = max(longest, int(r.run))
		} else {
			r.run = 0
		}
	}
	return longest, true
}

// zeroRunsSorted groups the sessions by node and sorts each node's list
// by start time before scanning it; it handles any input. A stable sort
// of one copy by node leaves each node's segment in input order, and
// startLess then orders the segment by start; slices.SortFunc runs the
// same pdqsort as sort.Slice, so tied or NaN starts land exactly where
// sorting a per-node list would put them.
func zeroRunsSorted(ss []SessionObs, zero float64) int {
	byNode := slices.Clone(ss)
	slices.SortStableFunc(byNode, func(a, b SessionObs) int { return cmp.Compare(a.Node, b.Node) })
	longest := 0
	for len(byNode) > 0 {
		end := 1
		for end < len(byNode) && byNode[end].Node == byNode[0].Node {
			end++
		}
		seg := byNode[:end]
		byNode = byNode[end:]
		slices.SortFunc(seg, startLess)
		run := 0
		for _, s := range seg {
			if s.MeterGainJ <= zero {
				run++
				if run > longest {
					longest = run
				}
			} else {
				run = 0
			}
		}
	}
	return longest
}

// startLess orders sessions by start as a three-way comparison that
// reports only "less", the one answer pdqsort asks for: sorting with it
// makes the same moves as sort.Slice with Start < Start.
func startLess(a, b SessionObs) int {
	if a.Start < b.Start {
		return -1
	}
	return 0
}

// denseNodes returns the size of a table indexed by the sessions' node
// IDs (the largest ID plus one). ok is false when an ID is negative, or
// when the table would exceed denseSlack plus denseFactor entries per
// session, so a few sessions at huge IDs never allocate a huge table.
func denseNodes(ss []SessionObs) (int, bool) {
	limit := denseSlack + denseFactor*len(ss)
	n := 0
	for _, s := range ss {
		if s.Node < 0 || int(s.Node) >= limit {
			return 0, false
		}
		n = max(n, int(s.Node)+1)
	}
	return n, true
}

// The dense per-node tables hold at most denseSlack + denseFactor·len
// entries.
const (
	denseSlack  = 1024
	denseFactor = 16
)

// DeathDetector audits the death record against the charging record: a
// node dying within PostChargeSec of a completed charging session is a
// charging failure, and a charger whose failure ratio (such deaths per
// session) exceeds MaxRatio is flagged. Spoof-only attackers have ratio
// ≈ 1; the attack hides key-node deaths among abundant genuine sessions.
type DeathDetector struct {
	// PostChargeSec is how long after a session a death implicates it;
	// non-positive gets 6 hours.
	PostChargeSec float64
	// MaxRatio is the flagging threshold on the failure ratio;
	// non-positive gets 0.25.
	MaxRatio float64
}

// Name implements Detector.
func (DeathDetector) Name() string { return "post-charge-death" }

// Threshold implements Detector.
func (d DeathDetector) Threshold() float64 {
	if d.MaxRatio <= 0 {
		return 0.25
	}
	return d.MaxRatio
}

// Score implements Detector: deaths within PostChargeSec of that node's
// last session, divided by total sessions. No sessions scores 0 — with
// nothing charged, deaths indict the scheduler, not the charger.
func (d DeathDetector) Score(a Audit) float64 {
	if len(a.Sessions) == 0 {
		return 0
	}
	window := d.PostChargeSec
	if window <= 0 {
		window = 6 * 3600
	}
	implicated := 0
	if n, ok := denseNodes(a.Sessions); ok {
		// A node's entry stays 0 until one of its sessions ends after
		// time 0, exactly when the map form below would first store it.
		lastEnd := make([]float64, n)
		for _, s := range a.Sessions {
			if s.End > lastEnd[s.Node] {
				lastEnd[s.Node] = s.End
			}
		}
		for _, death := range a.Deaths {
			if death.Node < 0 || int(death.Node) >= n {
				continue
			}
			if end := lastEnd[death.Node]; end > 0 && death.Time >= end && death.Time-end <= window {
				implicated++
			}
		}
		return float64(implicated) / float64(len(a.Sessions))
	}
	lastEnd := make(map[wrsn.NodeID]float64, len(a.Sessions))
	for _, s := range a.Sessions {
		if s.End > lastEnd[s.Node] {
			lastEnd[s.Node] = s.End
		}
	}
	for _, death := range a.Deaths {
		if end, ok := lastEnd[death.Node]; ok && death.Time >= end && death.Time-end <= window {
			implicated++
		}
	}
	return float64(implicated) / float64(len(a.Sessions))
}

// UnsolicitedDetector audits session provenance: the on-demand protocol
// only dispatches the charger to nodes that asked, so sessions at
// non-requesting nodes are anomalies. A planner that violates key-node
// time windows (visiting before the victim's request) trips this; CSA's
// window constraint R ≥ request time exists precisely to stay under it.
type UnsolicitedDetector struct {
	// MaxRatio is the flagging threshold on unsolicited sessions per
	// session; non-positive gets 0.1.
	MaxRatio float64
}

// Name implements Detector.
func (UnsolicitedDetector) Name() string { return "unsolicited-session" }

// Threshold implements Detector.
func (d UnsolicitedDetector) Threshold() float64 {
	if d.MaxRatio <= 0 {
		return 0.1
	}
	return d.MaxRatio
}

// Score implements Detector: the fraction of sessions with no pending
// request behind them.
func (d UnsolicitedDetector) Score(a Audit) float64 {
	if len(a.Sessions) == 0 {
		return 0
	}
	n := 0
	for _, s := range a.Sessions {
		if !s.Solicited {
			n++
		}
	}
	return float64(n) / float64(len(a.Sessions))
}

// StarvationDetector audits how nodes die: a node that dies while its
// charging request sits unanswered — while the charger is demonstrably
// active elsewhere — was starved. It catches the attacker who simply
// never serves its victims (including the degenerate single-emitter
// "attack", which cannot spoof and must either charge or ignore). The
// real spoofing attack stays under it because every victim's request is
// answered — with a session that delivers nothing.
type StarvationDetector struct {
	// MaxRatio is the flagging threshold on starved deaths per death;
	// non-positive gets 0.3.
	MaxRatio float64
	// ReactSec is the minimum time between request and death for the
	// death to count as starvation — a charger cannot answer a plea made
	// minutes before the battery gives out. Non-positive gets 1 h.
	ReactSec float64
}

// Name implements Detector.
func (StarvationDetector) Name() string { return "died-awaiting-charge" }

// Threshold implements Detector.
func (d StarvationDetector) Threshold() float64 {
	if d.MaxRatio <= 0 {
		return 0.3
	}
	return d.MaxRatio
}

// Score implements Detector: among observed deaths, the fraction that
// died sink-reachable with an unserved request issued before death —
// nodes the charger could have saved and chose not to. Zero when nothing
// died or the charger performed no sessions (with no service at all,
// blame falls on the operator's scheduling, and UtilityDetector covers
// it).
func (d StarvationDetector) Score(a Audit) float64 {
	if len(a.Deaths) == 0 || len(a.Sessions) == 0 {
		return 0
	}
	react := d.ReactSec
	if react <= 0 {
		react = 3600
	}
	starvedReq := make(map[wrsn.NodeID]float64, len(a.Unserved))
	for _, u := range a.Unserved {
		starvedReq[u.Node] = u.IssuedAt
	}
	starved := 0
	for _, death := range a.Deaths {
		if !death.Reachable {
			continue
		}
		if issued, ok := starvedReq[death.Node]; ok && issued <= death.Time-react {
			starved++
		}
	}
	return float64(starved) / float64(len(a.Deaths))
}

// Suite bundles the standard detector set with default thresholds.
func Suite() []Detector {
	return []Detector{
		UtilityDetector{},
		GainDetector{},
		DeathDetector{},
		UnsolicitedDetector{},
		StarvationDetector{},
	}
}

// Verdict is one detector's judgment of an audit.
type Verdict struct {
	Detector  string
	Score     float64
	Threshold float64
	Flagged   bool
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	state := "ok"
	if v.Flagged {
		state = "FLAGGED"
	}
	return fmt.Sprintf("%s: score %.3f vs threshold %.3f → %s", v.Detector, v.Score, v.Threshold, state)
}

// Judge runs every detector over the audit.
func Judge(audit Audit, detectors []Detector) []Verdict {
	return JudgeProbed(audit, detectors, obs.Nop(), 0)
}

// JudgeProbed is Judge with telemetry: each detector's score lands in
// the "detect.score.<name>" histogram, each firing increments
// "detect.flagged.<name>", and every verdict emits a "detect.verdict"
// event stamped with the caller's audit time. The verdicts themselves
// are identical to Judge's — probes observe, never influence.
func JudgeProbed(audit Audit, detectors []Detector, p obs.Probe, now float64) []Verdict {
	out := make([]Verdict, 0, len(detectors))
	for _, d := range detectors {
		s := d.Score(audit)
		v := Verdict{
			Detector:  d.Name(),
			Score:     s,
			Threshold: d.Threshold(),
			Flagged:   s >= d.Threshold(),
		}
		out = append(out, v)
		if p.Enabled() {
			p.Observe("detect.score."+v.Detector, s)
			if v.Flagged {
				p.Add("detect.flagged."+v.Detector, 1)
			}
			p.Event(obs.Event{T: now, Kind: "detect.verdict", Node: -1, Value: s, Detail: v.Detector})
		}
	}
	return out
}

// AnyFlagged reports whether any verdict fired.
func AnyFlagged(vs []Verdict) bool {
	for _, v := range vs {
		if v.Flagged {
			return true
		}
	}
	return false
}
