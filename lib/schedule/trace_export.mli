(** Chrome-trace (trace_event JSON) export of a BSP schedule.

    Renders a schedule as a Gantt timeline loadable in
    [ui.perfetto.dev] or [chrome://tracing]: one thread track per
    processor carrying a compute slice per superstep (duration = the
    processor's assigned work) and a communication slice (duration =
    [g * max(send, recv)] for that processor), one extra "bsp phases"
    track showing the superstep-level compute/comm/latency structure the
    cost formula charges, global instant markers at superstep
    boundaries, and counter tracks for the work/comm imbalance ratios.

    Time is in abstract cost units (the model has no wall clock): the
    compute phase of superstep [s] starts at the summed cost of
    supersteps [0 .. s-1], so the timeline's total extent equals
    {!Bsp_cost.total}. Durations are emitted in the file's microsecond
    field; the absolute scale is meaningless, the proportions are the
    point. Zero-duration slices are omitted. *)

val to_string : Machine.t -> Schedule.t -> string

val write_file : string -> Machine.t -> Schedule.t -> unit
