(** The content-addressed schedule cache (DESIGN.md Section 5h).

    An entry maps the structural hash of (canonical DAG, machine,
    algorithm, seed, replicate flag) to the best schedule found so far
    for that workload, together with its cost and the largest
    optimisation budget it has been computed under. Entries live as a
    file pair in a cache directory:

    {v
    <key>.schedule    Schedule_io format (v1/v2)
    <key>.meta.json   { key, algorithm, n, supersteps, cost, seconds_budget }
    v}

    The meta file is the commit point: {!store} writes the schedule
    first and the meta second, each atomically ({!Atomic_file}), so
    readers never observe a half-written entry and a killed writer
    leaves the previous complete entry intact. Corrupt or stale entries
    (including a schedule that no longer parses against the request's
    DAG) degrade to a cache miss and are overwritten by the recompute —
    the cache self-heals rather than failing. Eviction is by external
    deletion: removing either file of a pair invalidates the entry. *)

val key :
  dag:Dag.t ->
  machine:Machine.t ->
  algorithm:string ->
  seed:int ->
  replicate:bool ->
  string
(** The 16-hex-digit content address. Built from
    {!Dag.structural_hash}, the machine's [(p, g, l)] and full NUMA
    matrix, and the algorithm identity — stable across processes and
    platforms ({!Fnv}). *)

type entry = {
  cost : int;
  seconds_budget : float;
      (** largest budget this entry has been optimised under;
          [infinity]-like semantics for budget-insensitive algorithms
          are handled by {!Engine}, which never refreshes them *)
  schedule : Schedule.t;
}

val lookup : dir:string -> dag:Dag.t -> string -> entry option
(** [None] for absent {e or} defective entries. *)

val store :
  dir:string ->
  key:string ->
  algorithm:string ->
  cost:int ->
  seconds_budget:float ->
  Schedule.t ->
  unit

val schedule_path : dir:string -> string -> string
