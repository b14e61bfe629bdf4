(** The pluggable wall-clock source behind every timing measurement
    (DESIGN.md Section 5i).

    [Budget.seconds] deadlines, [Obs.Metrics.span] timing, the
    flight-recorder timestamps and the daemon's uptime/latency all read
    the clock through {!now}, so swapping the source swaps what "time"
    means for the whole process — tests install a deterministic fake
    clock and assert exact span durations instead of sleeping.

    The source is a process-wide atomic, [Unix.gettimeofday] by
    default: {!with_source} is meant for single-threaded test setup,
    not for concurrent replacement mid-run. *)

val now : unit -> float
(** The current time according to the installed source. *)

val with_source : (unit -> float) -> (unit -> 'a) -> 'a
(** Run the callback with the source temporarily replaced
    (exception-safe restore of the previous source). *)
