package trust

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Snapshot is the serialisable state of an Engine: every relationship
// record, recommender-factor override and alliance.  It lets a Grid domain
// persist its trust fabric across restarts and ship it to peers —
// "techniques for managing and evolving trust in a large-scale distributed
// system" (Section 7).  The engine's configuration (α, β, decay) is
// deliberately NOT serialised: it is policy, not state, and the importer
// chooses it.
type Snapshot struct {
	Version       int                  `json:"version"`
	Relationships []RelationshipRecord `json:"relationships"`
	Recommenders  []RecommenderRecord  `json:"recommenders,omitempty"`
	Alliances     [][2]EntityID        `json:"alliances,omitempty"`

	// Model and ParamHash pin the trust model that produced the snapshot
	// (see model.go).  Importing under a different model returns
	// ErrModelMismatch: a purge-model snapshot replayed into a fuzzy
	// engine would silently compute different trust, so the mismatch is
	// typed and refused.  Empty Model (snapshots predating the zoo) is
	// accepted by every model.
	Model     string `json:"model,omitempty"`
	ParamHash string `json:"param_hash,omitempty"`

	// Counts carries the per-relationship observation tallies the rival
	// models keep beside the engine's scores (history/load/reliability
	// inputs).  The default engine neither produces nor consumes them.
	Counts []ObservationCount `json:"counts,omitempty"`
}

// ObservationCount is one (observer, subject, context) tally: how many
// outcomes were observed and how many were positive (≥ the scale
// midpoint).
type ObservationCount struct {
	From EntityID `json:"from"`
	To   EntityID `json:"to"`
	Ctx  Context  `json:"ctx"`
	N    int32    `json:"n"`
	Pos  int32    `json:"pos"`
}

// RelationshipRecord is one (truster, trustee, context) trust entry.
type RelationshipRecord struct {
	From   EntityID `json:"from"`
	To     EntityID `json:"to"`
	Ctx    Context  `json:"ctx"`
	Score  float64  `json:"score"`
	LastTx float64  `json:"last_tx"`
}

// RecommenderRecord is one explicit R(z,y) override.
type RecommenderRecord struct {
	From   EntityID `json:"from"`
	About  EntityID `json:"about"`
	Factor float64  `json:"factor"`
}

// snapshotVersion guards the wire format.
const snapshotVersion = 1

// ErrSnapshotVersion is the sentinel for snapshots whose wire format this
// build cannot read.  Callers match it with errors.Is; to learn which
// version was actually found, unwrap with errors.As into a
// *SnapshotVersionError.
var ErrSnapshotVersion = errors.New("trust: unsupported snapshot version")

// SnapshotVersionError reports the unsupported version encountered.  It
// matches ErrSnapshotVersion under errors.Is.
type SnapshotVersionError struct {
	Version int
}

func (e *SnapshotVersionError) Error() string {
	return fmt.Sprintf("trust: unsupported snapshot version %d (want %d)", e.Version, snapshotVersion)
}

// Is lets errors.Is(err, ErrSnapshotVersion) succeed on the typed error.
func (e *SnapshotVersionError) Is(target error) bool {
	return target == ErrSnapshotVersion
}

// ErrModelMismatch is the sentinel for snapshots produced by a different
// trust model than the importer.  Match with errors.Is; unwrap with
// errors.As into a *ModelMismatchError for the names involved.
var ErrModelMismatch = errors.New("trust: snapshot model mismatch")

// ModelMismatchError reports which model the snapshot was taken under and
// which model refused it.  It matches ErrModelMismatch under errors.Is.
type ModelMismatchError struct {
	Want string // the importing model
	Got  string // the model recorded in the snapshot
}

func (e *ModelMismatchError) Error() string {
	return fmt.Sprintf("trust: snapshot taken under model %q, importing model is %q", e.Got, e.Want)
}

// Is lets errors.Is(err, ErrModelMismatch) succeed on the typed error.
func (e *ModelMismatchError) Is(target error) bool {
	return target == ErrModelMismatch
}

// checkSnapshotModel validates a snapshot's model stamp against the
// importing model's name.  The empty stamp (pre-zoo snapshots) always
// passes.
func checkSnapshotModel(want string, snap *Snapshot) error {
	if snap.Model != "" && snap.Model != want {
		return &ModelMismatchError{Want: want, Got: snap.Model}
	}
	return nil
}

// Export captures the engine state.  Pending (uncommitted) observation
// batches are not exported: they are transient evidence, not trust.
func (e *Engine) Export() *Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := &Snapshot{
		Version:   snapshotVersion,
		Model:     DefaultModel,
		ParamHash: ParamHash(DefaultModel, e.ModelParams()),
	}
	for ri := range e.relLive {
		if !e.relLive[ri] {
			continue
		}
		snap.Relationships = append(snap.Relationships, RelationshipRecord{
			From: e.ents[e.relFrom[ri]], To: e.ents[e.relTo[ri]], Ctx: e.ctxs[e.relCtx[ri]],
			Score: e.relScore[ri], LastTx: e.relLastTx[ri],
		})
	}
	for zi, l := range e.rec {
		for _, re := range l {
			snap.Recommenders = append(snap.Recommenders, RecommenderRecord{
				From: e.ents[zi], About: e.ents[re.about], Factor: re.factor,
			})
		}
	}
	for ai, allies := range e.ally {
		for _, bi := range allies {
			a, b := e.ents[ai], e.ents[bi]
			if a <= b {
				snap.Alliances = append(snap.Alliances, [2]EntityID{a, b})
			}
		}
	}
	// Sort for deterministic output.
	sort.Slice(snap.Relationships, func(i, j int) bool {
		a, b := snap.Relationships[i], snap.Relationships[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Ctx < b.Ctx
	})
	sort.Slice(snap.Recommenders, func(i, j int) bool {
		a, b := snap.Recommenders[i], snap.Recommenders[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.About < b.About
	})
	sort.Slice(snap.Alliances, func(i, j int) bool {
		a, b := snap.Alliances[i], snap.Alliances[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	return snap
}

// Import installs a snapshot into the engine, replacing any overlapping
// records (non-overlapping existing state is preserved, enabling merges).
// Invalid records are rejected atomically before any mutation.
func (e *Engine) Import(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("trust: nil snapshot")
	}
	if snap.Version != snapshotVersion {
		return &SnapshotVersionError{Version: snap.Version}
	}
	if err := checkSnapshotModel(DefaultModel, snap); err != nil {
		return err
	}
	// The checks SetDirect and SetRecommenderFactor make, NaN included,
	// plus a finite last transaction time: Θ's decay age is taken from it.
	for _, r := range snap.Relationships {
		if math.IsNaN(r.Score) || r.Score < MinScore || r.Score > MaxScore {
			return fmt.Errorf("trust: snapshot score %g for %s→%s outside scale", r.Score, r.From, r.To)
		}
		if !finite(r.LastTx) {
			return fmt.Errorf("trust: snapshot last_tx %g for %s→%s is not finite", r.LastTx, r.From, r.To)
		}
	}
	for _, r := range snap.Recommenders {
		if math.IsNaN(r.Factor) || r.Factor < 0 || r.Factor > 1 {
			return fmt.Errorf("trust: snapshot recommender factor %g outside [0,1]", r.Factor)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range snap.Relationships {
		e.relate(e.intern(r.From), e.intern(r.To), e.internCtx(r.Ctx), r.Score, r.LastTx)
	}
	for _, r := range snap.Recommenders {
		zi, yi := e.intern(r.From), e.intern(r.About)
		l := e.rec[zi]
		pos := sort.Search(len(l), func(i int) bool { return l[i].about >= yi })
		if pos < len(l) && l[pos].about == yi {
			l[pos].factor = r.Factor
			continue
		}
		l = append(l, recEdge{})
		copy(l[pos+1:], l[pos:])
		l[pos] = recEdge{about: yi, factor: r.Factor}
		e.rec[zi] = l
	}
	for _, a := range snap.Alliances {
		ai, bi := e.intern(a[0]), e.intern(a[1])
		insertAlly(&e.ally[ai], bi)
		insertAlly(&e.ally[bi], ai)
	}
	return nil
}

// Save writes the engine state as indented JSON.
func (e *Engine) Save(w io.Writer) error {
	data, err := json.MarshalIndent(e.Export(), "", "  ")
	if err != nil {
		return fmt.Errorf("trust: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("trust: write snapshot: %w", err)
	}
	return nil
}

// Load reads a JSON snapshot and imports it.
func (e *Engine) Load(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("trust: read snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("trust: parse snapshot: %w", err)
	}
	return e.Import(&snap)
}
