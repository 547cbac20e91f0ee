package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/logic"
	"repro/internal/prop"
	"repro/internal/stg"
)

// Crash recovery: New replays the journal before the first worker starts,
// so the recovery state machine runs on a quiescent server. Per accepted
// job without a terminal record:
//
//	never started       → re-enqueued exactly as accepted (same id, same
//	                      content address, same options); counted in
//	                      serve.jobs_recovered
//	started, unfinished → terminal "interrupted", pollable with the partial
//	                      attempt trace the journal captured; counted in
//	                      serve.jobs_interrupted
//	journal unreadable
//	beyond a torn tail  → the torn tail is logged and everything before it
//	                      recovered; records are fsync'd in order, so the
//	                      tail is the only record a crash can tear
//
// The journal is then compacted to exactly the recovered state and
// reopened for appending.

// openDurable wires the durability layer under Config.DataDir: the disk
// result cache, then journal replay, recovery and compaction.
func (s *Server) openDurable() error {
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("serve: data dir: %w", err)
	}
	if s.cache.enabled() {
		disk, err := openDiskCache(filepath.Join(s.cfg.DataDir, "cache"),
			s.cfg.CacheEntries, s.cfg.CacheBytes,
			s.diskHits, s.diskEvictions, s.diskCorrupt)
		if err != nil {
			return err
		}
		s.disk = disk
	}
	path := filepath.Join(s.cfg.DataDir, journalName)
	rp, err := replayJournal(path)
	if err != nil {
		return err
	}
	if rp.Truncated {
		s.log.LogAttrs(context.Background(), slog.LevelWarn,
			"serve: journal: tolerating truncated final record (torn crash write)",
			slog.String("tail", rp.TruncatedLine))
	}
	s.seq = rp.maxSeq
	keep := s.recoverJobs(rp)
	if err := compactJournal(path, keep); err != nil {
		return err
	}
	j, err := openJournal(path, s.reg.Counter("serve.journal_records"))
	if err != nil {
		return err
	}
	s.journal = j
	return nil
}

// recoverJobs applies the recovery state machine and returns the records
// the compacted journal must keep: accept records for re-enqueued jobs
// (they are open again), and accept+start+finish(interrupted) for
// interrupted ones (terminal — the next compaction drops them, but until
// then their ids stay reserved).
func (s *Server) recoverJobs(rp *replay) []*journalRecord {
	var keep []*journalRecord
	for _, rec := range rp.open() {
		if rp.started[rec.Job] {
			s.interruptJob(rec, rp.attempts[rec.Job],
				"job was running when the server died")
			keep = append(keep, rec,
				&journalRecord{T: "start", Job: rec.Job},
				&journalRecord{T: "finish", Job: rec.Job, Status: "interrupted",
					Attempts: rp.attempts[rec.Job]})
			continue
		}
		j, err := s.rebuildJob(rec)
		if err != nil {
			// The accept record was journaled by this server, so this is
			// corruption or a version skew — report, don't re-run garbage.
			s.interruptJob(rec, nil, fmt.Sprintf("recovery could not rebuild the job: %v", err))
			keep = append(keep, rec,
				&journalRecord{T: "start", Job: rec.Job},
				&journalRecord{T: "finish", Job: rec.Job, Status: "interrupted"})
			continue
		}
		if len(s.queue) == cap(s.queue) {
			s.interruptJob(rec, nil, "recovery overflowed the job queue")
			keep = append(keep, rec,
				&journalRecord{T: "start", Job: rec.Job},
				&journalRecord{T: "finish", Job: rec.Job, Status: "interrupted"})
			continue
		}
		s.queue <- j // workers not started yet; capacity checked above
		s.queueDepth.Set(s.depth.Add(1))
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.key != "" {
			s.flight[j.key] = j
		}
		s.jobsRecovered.Inc()
		keep = append(keep, rec)
	}
	return keep
}

// interruptJob registers a terminal "interrupted" job: pollable via
// GET /v1/jobs/{id} with whatever partial attempt trace the journal holds.
func (s *Server) interruptJob(rec *journalRecord, attempts []string, why string) {
	j := &job{
		id:     rec.Job,
		kind:   rec.Kind,
		key:    rec.Key,
		trace:  recoveredTrace(rec),
		events: newBroadcaster(s.sseDropped.Add),
		ctx:    context.Background(),
		cancel: func() {},
		done:   make(chan struct{}),
	}
	j.resp = &Response{
		JobID:     j.id,
		Status:    "interrupted",
		TraceID:   j.trace,
		ErrorKind: "interrupted",
		Error:     why + "; resubmit to re-run",
		Attempts:  attempts,
		Key:       rec.Key,
		code:      http.StatusOK,
	}
	j.status = "interrupted"
	close(j.done)
	j.events.finish("done", j.resp)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.jobsInterrupted.Inc()
}

// rebuildJob reconstructs a queued job from its accept record — the inverse
// of journalAccept plus the decode-time parsing the handler did on the
// original request.
func (s *Server) rebuildJob(rec *journalRecord) (*job, error) {
	g, err := stg.ParseG(strings.NewReader(rec.Spec))
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var nl *logic.Netlist
	var props []prop.Property
	if rec.Kind == "verify" {
		if strings.TrimSpace(rec.Impl) != "" {
			if nl, err = logic.ParseEquations(strings.NewReader(rec.Impl)); err != nil {
				return nil, fmt.Errorf("impl: %w", err)
			}
		}
		if strings.TrimSpace(rec.Props) != "" {
			if props, err = prop.Parse(rec.Props); err != nil {
				return nil, fmt.Errorf("properties: %w", err)
			}
			if err := prop.Bind(g, props); err != nil {
				return nil, fmt.Errorf("properties: %w", err)
			}
		}
	}
	var opts ReqOptions
	if rec.Opts != nil {
		opts = *rec.Opts
	}
	req := &Request{Spec: rec.Spec, Impl: rec.Impl, Properties: rec.Props, Options: opts}
	var ctx context.Context
	var cancel context.CancelFunc
	if t := s.jobTimeout(opts); t > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), t)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	cost := jobCost(opts)
	s.gate.force(cost)
	return &job{
		id:     rec.Job,
		kind:   rec.Kind,
		key:    rec.Key,
		cost:   cost,
		trace:  recoveredTrace(rec),
		req:    req,
		g:      g,
		nl:     nl,
		props:  props,
		events: newBroadcaster(s.sseDropped.Add),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: "queued",
	}, nil
}

// recoveredTrace is the job's original trace id from its accept record; a
// journal written before trace ids existed gets a fresh one.
func recoveredTrace(rec *journalRecord) string {
	if rec.Trace != "" {
		return rec.Trace
	}
	return mintTraceID()
}
