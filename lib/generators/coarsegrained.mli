(** Coarse-grained computational DAG generators (Appendix B.1).

    In the coarse-grained representation every matrix or vector is (the
    output of) a single DAG node. The paper extracts such DAGs from a
    running C++ GraphBLAS computation through a hyperDAG backend; that
    toolchain is not available here, so these generators synthesise the
    same op-level DAGs directly by composing the per-iteration operation
    templates of the algorithms the paper names: conjugate gradient,
    BiCGStab, PageRank, label propagation, and k-NN (k-hop reachability).
    The substitution is recorded in DESIGN.md; since the paper assigns
    coarse DAG weights purely structurally ([w = indeg - 1], sources 1,
    [c = 1]), the scheduling-relevant content matches the extracted
    instances.

    All generators take the number of iterations; running an algorithm
    "until convergence" corresponds to picking a larger iteration
    count. *)

type algorithm = Cg_coarse | Bicgstab | Pagerank | Label_propagation | Knn_coarse

val algorithm_name : algorithm -> string

val all_algorithms : algorithm list

val generate : algorithm -> iterations:int -> Dag.t
(** Build the op-level DAG of [iterations] iterations. *)

val generate_sized : algorithm -> target:int -> Dag.t
(** Pick the iteration count so the DAG has roughly [target] nodes. *)
