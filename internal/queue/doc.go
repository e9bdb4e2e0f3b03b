// Package queue is a zero-dependency durable job queue: the persistence
// tier of gangsimd, whose workers lease jobs straight from it.
//
// State lives in an append-only, fsync'd, checksummed journal of
// length-prefixed records plus a periodically compacted checkpoint.
// Recovery tolerates torn or truncated tails by dropping the trailing
// partial record and reports how much it dropped; it never resurrects a
// record that failed its checksum, and it drops a journal record that
// passes its checksum but does not decode together with every record
// after it, so that later appends are not hidden behind it. Every
// mutation bumps the job's version, so replaying a journal that overlaps
// an already-applied checkpoint (the crash window between checkpoint
// rename and journal truncation) is idempotent.
//
// The job lifecycle is a small lease-based state machine:
//
//	pending --Lease--> leased --Complete--> done
//	   ^                  |
//	   |                  +--Fail--> pending (backoff)
//	   +------------------+    after MaxAttempts --> dead
//
// A lease lasts until its holder settles it with Complete, Fail or
// Release, or until the process dies: Open reverts every lease it finds
// to pending without charging an attempt. Fail returns a job to pending
// after a bounded exponential backoff whose jitter comes from a seeded
// RNG, so retry schedules are reproducible under test. Jobs that exhaust
// their attempts land in the terminal dead-letter state instead of
// looping forever.
//
// Payloads and results are opaque JSON: the queue orders, persists and
// accounts for work without knowing it is simulation specs. Because every
// gangsched run is a pure function of its spec, re-dispatching a job after
// a crash converges to byte-identical results — the property the
// crash-resume soak in internal/serve asserts end to end.
package queue
