let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let quotient_is_dag session =
  let qdag, _ = Coarsen.quotient session in
  (* of_edges validates acyclicity; quotient uses the unchecked builder,
     so run the check explicitly. *)
  Dag.is_acyclic_edges ~n:(Dag.n qdag) (Dag.edges qdag)

let test_contract_chain () =
  let dag = Test_util.chain 4 in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:2;
  check "alive" 2 (Coarsen.num_alive session);
  check_bool "still a dag" true (quotient_is_dag session);
  let qdag, _ = Coarsen.quotient session in
  check "quotient work preserved" (Dag.total_work dag) (Dag.total_work qdag);
  check "quotient comm preserved" (Dag.total_comm dag) (Dag.total_comm qdag)

let test_uncontractable_edge_skipped () =
  (* Edge (0,2) has the alternative path 0 -> 1 -> 2, so contracting the
     whole triangle to 2 nodes must never produce a cycle. *)
  let dag =
    Dag.of_edges ~n:3 ~edges:[ (0, 1); (1, 2); (0, 2) ] ~work:[| 1; 1; 1 |]
      ~comm:[| 1; 1; 1 |]
  in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:2;
  check "alive" 2 (Coarsen.num_alive session);
  check_bool "still a dag" true (quotient_is_dag session)

let test_undo_restores_structure () =
  let rng = Rng.create 13 in
  let dag = Test_util.random_dag rng ~n:20 ~edge_prob:0.2 ~max_w:4 ~max_c:3 in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:6;
  let contracted = List.length (Coarsen.history session) in
  check_bool "did contract" true (contracted > 0);
  for _ = 1 to contracted do
    match Coarsen.undo_last session with
    | Some _ -> ()
    | None -> Alcotest.fail "history exhausted early"
  done;
  check "fully restored count" (Dag.n dag) (Coarsen.num_alive session);
  check_bool "no more history" true (Coarsen.undo_last session = None);
  let qdag, rep_of_id = Coarsen.quotient session in
  check "same n" (Dag.n dag) (Dag.n qdag);
  (* After full undo the quotient must be the original graph (up to the
     identity id map). *)
  Array.iteri (fun i r -> check "identity map" i r) rep_of_id;
  Alcotest.(check (list (pair int int))) "same edges" (Dag.edges dag) (Dag.edges qdag);
  Array.iteri
    (fun v _ ->
      check "same work" (Dag.work dag v) (Dag.work qdag v);
      check "same comm" (Dag.comm dag v) (Dag.comm qdag v))
    (Array.make (Dag.n dag) ())

let test_owner_tracking () =
  let dag = Test_util.chain 3 in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:1;
  let root = Coarsen.owner session 0 in
  check "all merged to one owner" root (Coarsen.owner session 1);
  check "all merged to one owner" root (Coarsen.owner session 2);
  check_bool "owner alive" true (Coarsen.alive session root)

(* One run_ratio per configured ratio, as Pipeline.run_multilevel does. *)
let run_each_ratio ~solver m dag =
  let c = Multilevel.default_config in
  List.map
    (fun ratio ->
      Multilevel.run_ratio ~strategy:c.Multilevel.strategy
        ~refine_interval:c.Multilevel.refine_interval ~refine_moves:c.Multilevel.refine_moves
        ~solver ~ratio m dag)
    c.Multilevel.ratios

let test_multilevel_run_valid () =
  let rng = Rng.create 19 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:15 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:4 ~g:2 ~l:5 ~delta:4 in
  let solver mach d = Bspg.schedule mach d in
  List.iter
    (fun s -> check_bool "valid" true (Validity.is_valid m s))
    (run_each_ratio ~solver m dag)

let test_multilevel_beats_trivial_on_comm_heavy () =
  (* A wide communication-heavy instance: the multilevel result should
     at least match the trivial single-processor schedule, which plain
     per-node schedulers often fail to do here (Section 7.3). *)
  let rng = Rng.create 21 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:20 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:8 ~g:2 ~l:5 ~delta:4 in
  let solver mach d = fst (Hc.improve mach (Bspg.schedule mach d)) in
  let costs = List.map (Bsp_cost.total m) (run_each_ratio ~solver m dag) in
  let ml = List.fold_left min max_int costs in
  let trivial = Bsp_cost.total m (Schedule.trivial dag) in
  check_bool "no worse than 1.2x trivial" true (float_of_int ml <= 1.2 *. float_of_int trivial)

(* A spent budget skips refinement outright: no quotient rebuild, no
   HC run, one refine_skipped per uncoarsening chunk. The schedule is
   the one an unbudgeted run with zero refinement moves produces. *)
let test_spent_budget_skips_refinement () =
  let rng = Rng.create 23 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:15 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:4 ~g:2 ~l:5 ~delta:4 in
  let run ?budget ~refine_moves () =
    Multilevel.run_ratio ?budget ~refine_interval:5 ~refine_moves ~solver:Bspg.schedule
      ~ratio:0.3 m dag
  in
  let r = Obs.Metrics.create () in
  let spent =
    Obs.Metrics.with_registry r (fun () -> run ~budget:(Budget.steps 0) ~refine_moves:100 ())
  in
  let contractions = Obs.Metrics.counter_value r "multilevel.contractions" in
  check_bool "did contract" true (contractions > 5);
  check "refine_passes" 0 (Obs.Metrics.counter_value r "multilevel.refine_passes");
  check "refine_skipped" ((contractions + 4) / 5)
    (Obs.Metrics.counter_value r "multilevel.refine_skipped");
  let unrefined = run ~refine_moves:0 () in
  Alcotest.(check (array int)) "proc" unrefined.Schedule.proc spent.Schedule.proc;
  Alcotest.(check (array int)) "step" unrefined.Schedule.step spent.Schedule.step;
  check "cost" (Bsp_cost.total m unrefined) (Bsp_cost.total m spent)

(* Properties: coarsening preserves acyclicity and total weights at every
   target; undo round-trips. *)
let prop_coarsen_acyclic_and_weights =
  Test_util.qtest ~count:60 "coarsen safe"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (int_range 1 10))
    (fun (dag, target) ->
      let session = Coarsen.start dag in
      Coarsen.coarsen_to session ~target;
      let qdag, _ = Coarsen.quotient session in
      Dag.is_acyclic_edges ~n:(Dag.n qdag) (Dag.edges qdag)
      && Dag.total_work qdag = Dag.total_work dag
      && Dag.total_comm qdag = Dag.total_comm dag)

let prop_undo_roundtrip =
  Test_util.qtest ~count:60 "undo roundtrip" (Test_util.arb_dag ()) (fun dag ->
      let session = Coarsen.start dag in
      Coarsen.coarsen_to session ~target:(max 1 (Dag.n dag / 3));
      let k = List.length (Coarsen.history session) in
      for _ = 1 to k do
        ignore (Coarsen.undo_last session : Coarsen.contraction option)
      done;
      let qdag, _ = Coarsen.quotient session in
      Dag.n qdag = Dag.n dag
      && Dag.edges qdag = Dag.edges dag
      && Array.for_all
           (fun v -> Dag.work qdag v = Dag.work dag v && Dag.comm qdag v = Dag.comm dag v)
           (Array.init (Dag.n dag) Fun.id))

let prop_multilevel_valid =
  Test_util.qtest ~count:20 "multilevel valid"
    QCheck2.Gen.(pair (Test_util.arb_dag ~max_n:20 ()) (Test_util.arb_machine ~max_p:4 ()))
    (fun (dag, m) ->
      let solver mach d = Bspg.schedule mach d in
      List.for_all (Validity.is_valid m) (run_each_ratio ~solver m dag))

let () =
  Alcotest.run "multilevel"
    [
      ( "coarsen",
        [
          Alcotest.test_case "contract chain" `Quick test_contract_chain;
          Alcotest.test_case "uncontractable skipped" `Quick test_uncontractable_edge_skipped;
          Alcotest.test_case "undo restores structure" `Quick test_undo_restores_structure;
          Alcotest.test_case "owner tracking" `Quick test_owner_tracking;
        ] );
      ( "driver",
        [
          Alcotest.test_case "run valid" `Quick test_multilevel_run_valid;
          Alcotest.test_case "comm-heavy vs trivial" `Quick
            test_multilevel_beats_trivial_on_comm_heavy;
          Alcotest.test_case "spent budget skips refinement" `Quick
            test_spent_budget_skips_refinement;
        ] );
      ( "property",
        [ prop_coarsen_acyclic_and_weights; prop_undo_roundtrip; prop_multilevel_valid ] );
    ]
