let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let test_bspg_diamond () =
  let dag = Test_util.diamond () in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  let s = Bspg.schedule m dag in
  check_bool "valid" true (Validity.is_valid m s);
  (* All four nodes must be assigned. *)
  Array.iter (fun q -> check_bool "assigned" true (q >= 0)) s.Schedule.proc

let test_bspg_single_proc () =
  let dag = Test_util.chain 5 in
  let m = Machine.uniform ~p:1 ~g:1 ~l:5 in
  let s = Bspg.schedule m dag in
  check "single superstep" 1 (Schedule.num_supersteps s);
  check "cost = work + l" (5 + 5) (Bsp_cost.total m s)

let test_bspg_independent_nodes_balanced () =
  (* 8 equal independent nodes on 4 processors: a single superstep with
     balanced work is reachable greedily. *)
  let dag =
    Dag.of_edges ~n:8 ~edges:[] ~work:(Array.make 8 3) ~comm:(Array.make 8 1)
  in
  let m = Machine.uniform ~p:4 ~g:1 ~l:2 in
  let s = Bspg.schedule m dag in
  check "one superstep" 1 (Schedule.num_supersteps s);
  check "cost" (6 + 2) (Bsp_cost.total m s)

let test_source_first_superstep_clusters () =
  (* Sources 0 and 1 share the successor 2; source 3 is independent with
     successor 4. Clustering must co-locate 0 and 1. *)
  let dag =
    Dag.of_edges ~n:5
      ~edges:[ (0, 2); (1, 2); (3, 4) ]
      ~work:(Array.make 5 1) ~comm:(Array.make 5 1)
  in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  let s = Source_heuristic.schedule m dag in
  check_bool "valid" true (Validity.is_valid m s);
  check "clustered" s.Schedule.proc.(0) s.Schedule.proc.(1)

let test_source_absorbs_successors () =
  (* On a chain, each superstep absorbs exactly one direct successor of
     its source (absorption does not cascade further), so a 6-chain
     needs 3 supersteps of two processor-local nodes each instead of 6
     singleton supersteps. *)
  let dag = Test_util.chain 6 in
  let m = Machine.uniform ~p:4 ~g:1 ~l:1 in
  let s = Source_heuristic.schedule m dag in
  check "three supersteps" 3 (Schedule.num_supersteps s);
  check "pairs co-located" s.Schedule.proc.(0) s.Schedule.proc.(1);
  check "pairs co-located" s.Schedule.proc.(2) s.Schedule.proc.(3)

let test_source_round_robin_balances () =
  let dag =
    Dag.of_edges ~n:6 ~edges:[] ~work:[| 6; 5; 4; 3; 2; 1 |] ~comm:(Array.make 6 1)
  in
  let m = Machine.uniform ~p:2 ~g:1 ~l:0 in
  let s = Source_heuristic.schedule m dag in
  (* Clustering is trivial (no shared successors): round-robin by
     decreasing weight gives loads 6+4+2 vs 5+3+1 -> work max 12. *)
  check "balanced-ish" 12 (Bsp_cost.total m s)

(* Properties: both heuristics always produce valid schedules, and
   assign every node exactly once. *)
let prop_heuristics_valid =
  Test_util.qtest ~count:80 "heuristics valid"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (Test_util.arb_machine ()))
    (fun (dag, m) ->
      let check_sched s =
        Validity.is_valid m s
        && Array.for_all (fun q -> q >= 0 && q < m.Machine.p) s.Schedule.proc
        && Array.for_all (fun st -> st >= 0) s.Schedule.step
      in
      check_sched (Bspg.schedule m dag) && check_sched (Source_heuristic.schedule m dag))

(* BSPg should never be worse than executing everything sequentially
   with a superstep per node (a very weak but absolute sanity bound). *)
let prop_bspg_sane_cost =
  Test_util.qtest ~count:60 "bspg cost sane"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (Test_util.arb_machine ()))
    (fun (dag, m) ->
      let s = Bspg.schedule m dag in
      let worst = Dag.total_work dag + (Dag.n dag * m.Machine.l) + (m.Machine.g * Dag.total_comm dag * Machine.max_lambda m * m.Machine.p) in
      Bsp_cost.total m s <= max worst 1)

(* Golden initial schedules: cost and an FNV fingerprint of the
   proc/step arrays of every initialiser on three fixed seeded instances
   (step budgets only, so the result is deterministic). Any change to
   the order in which these schedulers visit adjacency (float folds,
   tie-breaks, ILP variable order) shows up as a different fingerprint.
   Two rows pin the search on top: HC over BSPg, and one multilevel
   ratio with BSPg as the coarse solver; their step budgets run out
   mid-search on some instances, so budget accounting is pinned too. *)
let golden_instances () =
  let gen seed family =
    Finegrained.generate_sized (Rng.create seed) ~family ~shape:Finegrained.Wide ~target:40
  in
  [
    ("spmv/uniform", gen 11 Finegrained.Spmv, Machine.uniform ~p:4 ~g:3 ~l:5);
    ("exp/numa", gen 12 Finegrained.Exp, Machine.numa_tree ~p:4 ~g:2 ~l:4 ~delta:3);
    ("cg/uniform", gen 13 Finegrained.Cg, Machine.uniform ~p:2 ~g:1 ~l:10);
  ]

let golden_algorithms =
  [
    ("bspg", fun m d -> Bspg.schedule m d);
    ("source", fun m d -> Source_heuristic.schedule m d);
    ("cilk", fun m d -> Cilk.schedule d ~p:m.Machine.p ~seed:7);
    ("hdagg", fun m d -> Hdagg.schedule m d);
    ("etf", fun m d -> List_scheduler.schedule List_scheduler.Etf m d);
    ("bl-est", fun m d -> List_scheduler.schedule List_scheduler.Bl_est m d);
    ( "ilpinit",
      fun m d -> Ilp_schedulers.init ~budget:(Budget.steps 60) ~max_vars:100 ~max_nodes:20 m d );
    ("bspg+hc", fun m d -> fst (Hc.improve ~budget:(Budget.steps 200) m (Bspg.schedule m d)));
    ( "multilevel",
      fun m d ->
        Multilevel.run_ratio ~budget:(Budget.steps 1500) ~refine_interval:5 ~refine_moves:100
          ~solver:Bspg.schedule ~ratio:0.3 m d );
  ]

let golden =
  [
    ("spmv/uniform", "bspg", 52, "e8439f2c030857e5");
    ("spmv/uniform", "source", 42, "e7a28de20ecd0585");
    ("spmv/uniform", "cilk", 86, "8baeffcaf67a68e5");
    ("spmv/uniform", "hdagg", 45, "280138970bf7b746");
    ("spmv/uniform", "etf", 56, "70bdb7ffc092c107");
    ("spmv/uniform", "bl-est", 53, "ac6a500bc1a0ee46");
    ("spmv/uniform", "ilpinit", 160, "a2ac9b87582e47c4");
    ("spmv/uniform", "bspg+hc", 47, "a1ceb122b6e3b7a7");
    ("spmv/uniform", "multilevel", 77, "2ec5492b9a3389a5");
    ("exp/numa", "bspg", 95, "50084f3dcb94f586");
    ("exp/numa", "source", 101, "64b7172808e52365");
    ("exp/numa", "cilk", 126, "fa13755b02f5e6e5");
    ("exp/numa", "hdagg", 84, "bd71428acf6c4b87");
    ("exp/numa", "etf", 101, "b28798094ee564e4");
    ("exp/numa", "bl-est", 92, "bb0597c64b453c84");
    ("exp/numa", "ilpinit", 161, "590c4b9e57097010");
    ("exp/numa", "bspg+hc", 84, "a2f1f4412d67ea65");
    ("exp/numa", "multilevel", 79, "efc1b17326f78943");
    ("cg/uniform", "bspg", 143, "13791f9682ca06ca");
    ("cg/uniform", "source", 144, "74e4cd9385e860a2");
    ("cg/uniform", "cilk", 126, "18b439ebeedeb727");
    ("cg/uniform", "hdagg", 125, "e3e3a09c8cdfea01");
    ("cg/uniform", "etf", 132, "d8f838fd53201307");
    ("cg/uniform", "bl-est", 132, "808d3cf6427a5ca4");
    ("cg/uniform", "ilpinit", 166, "36c7bb8fdd7a07e6");
    ("cg/uniform", "bspg+hc", 142, "1ac955e2d0cd8e88");
    ("cg/uniform", "multilevel", 121, "ab68ff36c7d56367");
  ]

let test_golden_initialisers () =
  let row (iname, aname, cost, fingerprint) =
    Printf.sprintf "%s %s cost=%d proc/step=%s" iname aname cost fingerprint
  in
  let actual =
    List.concat_map
      (fun (iname, dag, m) ->
        List.map
          (fun (aname, schedule) ->
            let s : Schedule.t = schedule m dag in
            let fingerprint =
              Fnv.to_hex (Fnv.int_array (Fnv.int_array Fnv.init s.proc) s.step)
            in
            row (iname, aname, Bsp_cost.total m s, fingerprint))
          golden_algorithms)
      (golden_instances ())
  in
  Alcotest.(check (list string)) "initial schedules" (List.map row golden) actual

let () =
  Alcotest.run "heuristics"
    [
      ( "bspg",
        [
          Alcotest.test_case "diamond" `Quick test_bspg_diamond;
          Alcotest.test_case "single processor" `Quick test_bspg_single_proc;
          Alcotest.test_case "independent nodes balanced" `Quick
            test_bspg_independent_nodes_balanced;
        ] );
      ( "source",
        [
          Alcotest.test_case "first superstep clusters" `Quick
            test_source_first_superstep_clusters;
          Alcotest.test_case "absorbs successors" `Quick test_source_absorbs_successors;
          Alcotest.test_case "round robin balances" `Quick test_source_round_robin_balances;
        ] );
      ("property", [ prop_heuristics_valid; prop_bspg_sane_cost ]);
      ("golden", [ Alcotest.test_case "initialisers unchanged" `Quick test_golden_initialisers ]);
    ]
