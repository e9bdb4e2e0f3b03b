// Package disk models a paging device with the first-order cost structure
// that makes block paging worthwhile: every non-sequential access pays a
// seek plus rotational latency, while sequential pages cost only transfer
// time. The paper's mechanisms win precisely because they convert many
// scattered single-page transfers into a few large sequential ones; this
// model reproduces that trade-off without simulating platter geometry.
//
// A Disk serves one request at a time from two FIFO queues: demand
// (page faults, switch-time paging) and background (the bg-write daemon).
// Demand requests always start before queued background requests, but an
// in-service request is never preempted — matching the paper's description
// of the background writer as a lower-priority kswapd activity.
//
// A request names one slot run (a contiguous extent on the device, one page
// per slot). Its service time is
//
//	(seek + rotational, unless the run starts where the head already is)
//	  + pages × transfer
//
// so a 256-page sequential read costs one seek while 256 scattered reads
// cost 256 of them — roughly the 40× gap measured on hardware of the
// paper's era.
package disk
