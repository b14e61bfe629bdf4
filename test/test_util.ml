(* Shared helpers for the test suites: random DAG generation for
   property-based tests and a few fixed example graphs. *)

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  Dag.of_edges ~n:4
    ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    ~work:[| 1; 2; 3; 4 |] ~comm:[| 1; 1; 2; 1 |]

let chain k =
  Dag.of_edges ~n:k
    ~edges:(List.init (k - 1) (fun i -> (i, i + 1)))
    ~work:(Array.make k 1) ~comm:(Array.make k 1)

(* A broadcaster (w=1, c=8) feeding one heavy consumer (w=300) per
   processor of an 8-leaf delta=4 NUMA tree, with the start schedule
   that puts the broadcaster on p0 in superstep 0 and consumer v on
   processor v - 1 in superstep 1. Every single-node move doubles some
   processor's superstep-1 work (+300) for a comm saving of at most 128,
   so the move engine is stuck there; replicating the broadcaster onto
   the far 4-cluster cuts the h-relation from 584 to 72. *)
let numa_broadcast () =
  let machine = Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:4 in
  let dag =
    Dag.of_edges ~n:9
      ~edges:(List.init 8 (fun q -> (0, q + 1)))
      ~work:(Array.init 9 (fun v -> if v = 0 then 1 else 300))
      ~comm:(Array.init 9 (fun v -> if v = 0 then 8 else 1))
  in
  let start =
    Schedule.of_assignment dag
      ~proc:(Array.init 9 (fun v -> if v = 0 then 0 else v - 1))
      ~step:(Array.init 9 (fun v -> if v = 0 then 0 else 1))
  in
  (machine, dag, start)

(* Random layered DAG: nodes get random weights; edges only point from
   lower to higher ids, so acyclicity holds by construction. *)
let random_dag rng ~n ~edge_prob ~max_w ~max_c =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng edge_prob then edges := (u, v) :: !edges
    done
  done;
  let work = Array.init n (fun _ -> 1 + Rng.int rng max_w) in
  let comm = Array.init n (fun _ -> 1 + Rng.int rng max_c) in
  Dag.of_edges ~n ~edges:!edges ~work ~comm

(* QCheck generator wrapping random_dag; the seed is the shrink target so
   failures reproduce deterministically. *)
let arb_dag ?(max_n = 24) () =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 max_n in
    let* dense = bool in
    let rng = Rng.create seed in
    let edge_prob = if dense then 0.3 else 0.1 in
    return (random_dag rng ~n ~edge_prob ~max_w:5 ~max_c:4))

let arb_machine ?(max_p = 8) () =
  QCheck2.Gen.(
    let* p_exp = int_range 0 3 in
    let p = min max_p (1 lsl p_exp) in
    let* g = int_range 0 4 in
    let* l = int_range 0 6 in
    let* numa = bool in
    if numa && p >= 2 then
      let* delta = int_range 1 4 in
      return (Machine.numa_tree ~p ~g ~l ~delta)
    else return (Machine.uniform ~p ~g ~l))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Substring search used by rendering tests. *)
let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0
