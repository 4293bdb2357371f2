// Durable-storage glue for the Service: job-spec persistence, journal
// replay and recovery, and artifact access for the HTTP layer. Everything
// here is a no-op on a service without Config.DataDir.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/store"
)

// jobSpec is the persisted submission: enough to re-create the exact same
// job (same content key) in a later process. The benchmark travels as its
// canonical text serialization, the options as the wire subset — which is
// why only wire-representable submissions are durable.
type jobSpec struct {
	Bench   string      `json:"bench"`
	Options OptionsWire `json:"options"`
}

// Artifact-kind suffixes under a job's content key in the object store.
const (
	artResult = "result" // encoded core.Result (written by the cache tier)
	artLog    = "log"    // the job's progress log, one line per row
	artSVG    = "svg"    // rendered clock tree (written lazily on first render)
	artJob    = "job"    // the jobSpec that reproduces the submission
	artTrace  = "trace"  // Chrome trace-event JSON of the executed run's flow
)

// ArtifactNames lists the artifact kinds a durable job may have.
func ArtifactNames() []string { return []string{artResult, artLog, artSVG, artJob, artTrace} }

// ArtifactInfo describes one persisted artifact of a job.
type ArtifactInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// artifactKey maps (job key, artifact name) to the store key.
func artifactKey(key, name string) string { return key + "." + name }

// ResultArtifactKey returns the object-store key under which a run's
// encoded result persists. It is the naming contract shared by the
// service's disk cache tier and the contango CLI's -cache-dir (which may
// point at a contangod -data-dir), so the two surfaces can never drift.
func ResultArtifactKey(jobKey string) string { return artifactKey(jobKey, artResult) }

// journal appends one lifecycle record (a no-op on in-memory services).
// Callers invoke it after releasing s.mu: the append fsyncs, and disk
// latency must never serialize the service's hot paths.
func (s *Service) journal(kind, key string) {
	if s.jnl == nil {
		return
	}
	if _, err := s.jnl.Append(kind, key); err != nil {
		s.logAt(slog.LevelWarn, "journal append failed", slog.String("record", kind),
			slog.String("key", key), slog.String("error", err.Error()))
	}
}

// persistSubmit makes a submission durable before it is queued: its spec
// goes to the object store so a later process can re-create the job.
// It reports whether the spec was persisted — only then does the caller
// journal "submitted" (a journal record without a spec would be
// unrecoverable noise). Jobs whose options are not wire-representable
// (a custom Engine or Tech — the spec would not reproduce the content
// key) are skipped: they run normally and their results still persist via
// the cache write-through, but a crash cannot re-queue them. Runs without
// s.mu held: the write is idempotent, so racing identical submissions are
// safe.
func (s *Service) persistSubmit(b *bench.Benchmark, o core.Options, key string, deadlineMS int64) bool {
	if s.st == nil {
		return false
	}
	spec := jobSpec{Options: optionsToWire(o)}
	// The deadline travels in the spec as a relative duration (it cannot
	// come from optionsToWire — it is a submission hint, not an option) so
	// a recovered job gets a fresh window of the same length. It does not
	// perturb the spec's content key: OptionsWire.Options ignores it.
	spec.Options.DeadlineMS = deadlineMS
	notDurable := func(err error) bool {
		s.logAt(slog.LevelWarn, "job not durable", slog.String("key", key), slog.String("error", err.Error()))
		return false
	}
	var bb bytes.Buffer
	if err := bench.Write(&bb, b); err != nil {
		return notDurable(fmt.Errorf("benchmark serialization: %w", err))
	}
	spec.Bench = bb.String()
	if roundTrip, err := specKey(spec); err != nil || roundTrip != key {
		s.logAt(slog.LevelInfo, "job not durable: library-only options do not round-trip the content key",
			slog.String("key", key))
		return false
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return notDurable(err)
	}
	if err := s.st.Put(artifactKey(key, artJob), data); err != nil {
		return notDurable(err)
	}
	return true
}

// specKey recomputes the content key a persisted spec reproduces.
func specKey(spec jobSpec) (string, error) {
	b, err := bench.Read(strings.NewReader(spec.Bench))
	if err != nil {
		return "", err
	}
	return JobKey(b, spec.Options.Options()), nil
}

// persistJobLog writes the job's progress log artifact. Only executed jobs
// persist logs — a cache-hit job would otherwise overwrite the original
// run's log with its one-line "served from cache" note.
func (s *Service) persistJobLog(j *Job) {
	if s.st == nil {
		return
	}
	lines := j.Logs()
	if err := s.st.Put(artifactKey(j.key, artLog), []byte(strings.Join(lines, "\n"))); err != nil {
		s.logAt(slog.LevelWarn, "job log not persisted", slog.String("job", j.id),
			slog.String("key", j.key), slog.String("error", err.Error()))
	}
}

// recoverJournal replays the compacted journal: every job whose latest
// record is non-terminal lost its run to the previous process's death and
// is re-queued (counted in Stats.RecoveredJobs). Damaged specs and specs
// that no longer reproduce their content key are logged and skipped —
// recovery never fails startup.
func (s *Service) recoverJournal(recs []store.Record) {
	for _, r := range recs {
		if r.Terminal() {
			continue
		}
		skip := func(reason string, attrs ...slog.Attr) {
			s.logAt(slog.LevelWarn, "recovery: job skipped",
				append([]slog.Attr{slog.String("key", r.Key), slog.String("reason", reason)}, attrs...)...)
		}
		data, err := s.st.Get(artifactKey(r.Key, artJob))
		if err != nil {
			skip("spec unavailable", slog.String("error", err.Error()))
			continue
		}
		var spec jobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			skip("bad spec", slog.String("error", err.Error()))
			continue
		}
		b, err := bench.Read(strings.NewReader(spec.Bench))
		if err != nil {
			skip("bad benchmark", slog.String("error", err.Error()))
			continue
		}
		o := spec.Options.Options()
		// Re-queue a spec only under the key it was journaled with, the
		// invariant persistSubmit checks at write time. A spec whose options
		// no longer reproduce its key (one naming a since-retired field,
		// which decoding drops) would otherwise re-run a different cascade.
		if key := JobKey(b, o); key != r.Key {
			var raw struct {
				Options json.RawMessage `json:"options"`
			}
			_ = json.Unmarshal(data, &raw)
			skip("spec options no longer reproduce the key",
				slog.String("options", string(raw.Options)), slog.String("now", key))
			continue
		}
		// A recovered ECO job's spec holds only the base key and delta; the
		// base tree re-hydrates from the base run's result artifact. A base
		// evicted from the store since the crash is a skip, not a failure.
		if err := s.hydrateECO(&o); err != nil {
			skip("eco base unavailable", slog.String("error", err.Error()))
			continue
		}
		j, err := s.SubmitWith(b, o, SubmitOpts{Deadline: spec.Options.Deadline()})
		if err != nil {
			skip("resubmission failed", slog.String("error", err.Error()))
			continue
		}
		if j.CacheHit() {
			// The crash lost only the "finished" record, not the result;
			// the submission converged the journal and nothing re-runs —
			// that is not a recovered job.
			s.logAt(slog.LevelInfo, "recovery: job already finished on disk", slog.String("job", j.ID()),
				slog.String("bench", b.Name), slog.String("key", r.Key))
			continue
		}
		s.metrics.recovered.Inc()
		s.logAt(slog.LevelInfo, "recovery: job re-queued", slog.String("job", j.ID()),
			slog.String("bench", b.Name), slog.String("key", r.Key))
	}
}

// Artifact returns the persisted artifact of the given kind for a job
// content key. It fails with errNoStore on an in-memory service, with an
// error matching store.ErrNotFound when the artifact does not exist (or
// was quarantined as corrupt), and rejects unknown kinds.
func (s *Service) Artifact(key, name string) ([]byte, error) {
	if s.st == nil {
		return nil, errNoStore
	}
	if !validArtifactName(name) {
		return nil, fmt.Errorf("service: unknown artifact %q", name)
	}
	return s.st.Get(artifactKey(key, name))
}

// Artifacts lists the persisted artifacts for a job content key (empty on
// an in-memory service).
func (s *Service) Artifacts(key string) []ArtifactInfo {
	if s.st == nil {
		return nil
	}
	var out []ArtifactInfo
	for _, name := range ArtifactNames() {
		if size, ok := s.st.Size(artifactKey(key, name)); ok {
			out = append(out, ArtifactInfo{Name: name, Size: size})
		}
	}
	return out
}

// Durable reports whether the service has a durable store attached.
func (s *Service) Durable() bool { return s.st != nil }

// putArtifact persists one artifact blob (no-op without a store).
func (s *Service) putArtifact(key, name string, data []byte) {
	if s.st == nil {
		return
	}
	if err := s.st.Put(artifactKey(key, name), data); err != nil {
		s.logAt(slog.LevelWarn, "artifact not persisted", slog.String("key", key),
			slog.String("artifact", name), slog.String("error", err.Error()))
	}
}

// getArtifact reads one artifact blob (nil without a store or on a miss).
func (s *Service) getArtifact(key, name string) []byte {
	if s.st == nil {
		return nil
	}
	data, err := s.st.Get(artifactKey(key, name))
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			s.logAt(slog.LevelWarn, "artifact unreadable", slog.String("key", key),
				slog.String("artifact", name), slog.String("error", err.Error()))
		}
		return nil
	}
	return data
}

func validArtifactName(name string) bool {
	for _, n := range ArtifactNames() {
		if n == name {
			return true
		}
	}
	return false
}

// optionsToWire projects the wire-representable subset of options, the
// inverse of OptionsWire.Options for that subset.
func optionsToWire(o core.Options) OptionsWire {
	w := OptionsWire{
		Plan:           o.Plan,
		Corners:        o.Corners,
		FastSim:        o.FastSim,
		Gamma:          o.Gamma,
		LargeInverters: o.LargeInverters,
		Parallelism:    o.Parallelism,
	}
	if o.ECO != nil && o.ECO.Delta != nil {
		// The spec carries only the key material (base key + canonical
		// delta text): enough to round-trip the content key, and the
		// recovery path re-hydrates the base tree from its result artifact.
		w.ECOBase = o.ECO.BaseKey
		w.ECODelta = o.ECO.Delta.String()
	}
	return w
}

// shortKey abbreviates a content key for error messages.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
