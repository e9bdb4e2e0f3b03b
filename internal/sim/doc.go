// Package sim provides the discrete-event simulation kernel used by every
// other subsystem in this repository.
//
// The kernel is a single-threaded event loop over a calendar queue of
// events ordered by (time, sequence number): a wheel of 128 µs buckets
// spanning about 65 ms, each kept sorted, with a sorted spill tier for
// events beyond the wheel. The sequence number makes execution
// deterministic when several events share a timestamp: events fire in the
// order they were scheduled. All model time is expressed in microseconds
// via the Time and Duration types; there is no wall-clock coupling, so a
// run with a given seed is exactly reproducible.
//
// Components schedule work with Engine.Schedule / Engine.At and may cancel
// a pending event with Event.Cancel. Long-running activities (a process
// computing, a disk servicing a request) are modelled as chains of events
// rather than goroutines, which keeps the simulator deterministic and
// allocation-light.
package sim
