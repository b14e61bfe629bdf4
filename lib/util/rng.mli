(** Deterministic pseudo-random number generation.

    All stochastic components of the framework (the Cilk work-stealing
    baseline, the synthetic DAG generators, randomized tests) draw their
    randomness through this module so that every experiment is exactly
    reproducible from a seed. The implementation is a splitmix64
    generator, which is small, fast, and has well-understood statistical
    quality for simulation purposes. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator determined entirely by
    [seed]. Two generators created from equal seeds produce identical
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that continues the same stream;
    advancing one does not affect the other. *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t]. Used to give sub-components their own streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] is a uniformly random element of [arr], which must be
    non-empty. *)
