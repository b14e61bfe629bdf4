(* Direct tests of the interval ILP engine (the machinery behind
   ILPfull / ILPpart / ILPinit). *)

let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let machine2 = Machine.uniform ~p:2 ~g:2 ~l:3

(* Chain 0 -> 1 -> 2 with unit weights. *)
let chain3 = Test_util.chain 3

let full_spec dag machine proc step =
  {
    Ilp_interval.dag;
    machine;
    proc = Array.copy proc;
    step = Array.copy step;
    v0 = List.init (Dag.n dag) Fun.id;
    s_lo = 0;
    s_hi = (if Dag.n dag = 0 then 0 else Array.fold_left max 0 step);
  }

let test_estimate_vars () =
  let spec = full_spec chain3 machine2 [| 0; 0; 0 |] [| 0; 1; 2 |] in
  (* |V0| * |S0| * P^2 = 3 * 3 * 4. *)
  check "estimate" 36 (Ilp_interval.estimate_vars spec)

let test_validation_errors () =
  let fails f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "empty window" true
    (fails (fun () ->
         Ilp_interval.build
           { (full_spec chain3 machine2 [| 0; 0; 0 |] [| 0; 1; 2 |]) with
             Ilp_interval.s_lo = 2;
             s_hi = 1;
           }));
  check_bool "v0 node outside window" true
    (fails (fun () ->
         Ilp_interval.build
           { (full_spec chain3 machine2 [| 0; 0; 0 |] [| 0; 1; 2 |]) with
             Ilp_interval.s_hi = 1;
           }));
  (* Fixed node inside the window. *)
  check_bool "fixed node in window" true
    (fails (fun () ->
         Ilp_interval.build
           { (full_spec chain3 machine2 [| 0; 0; 0 |] [| 0; 1; 2 |]) with
             Ilp_interval.v0 = [ 0; 1 ];
           }))

let test_full_model_solution_is_schedulable () =
  (* Solve the full model for the chain and check the extraction yields a
     valid assignment whose model objective matches its true cost minus
     the latency constant. *)
  let proc = [| 0; 0; 0 |] and step = [| 0; 1; 2 |] in
  let spec = full_spec chain3 machine2 proc step in
  let model, built = Ilp_interval.build spec in
  let outcome = Branch_bound.solve ~max_nodes:4000 model in
  (match outcome.Branch_bound.solution with
   | None -> Alcotest.fail "no solution found"
   | Some x ->
     check_bool "model constraints satisfied" true (Ilp.constraints_satisfied model x);
     let updates = Ilp_interval.extract built x in
     let proc' = Array.copy proc and step' = Array.copy step in
     List.iter
       (fun (v, q, s) ->
         proc'.(v) <- q;
         step'.(v) <- s)
       updates;
     check_bool "assignment valid" true
       (Schedule.assignment_valid chain3 ~proc:proc' ~step:step');
     (* The optimum for a chain on one processor: everything in one
        superstep of the three -> work 3, no communication. The model
        objective excludes the constant 3 * l latency. *)
     Alcotest.(check (float 1e-6)) "objective" 3.0 outcome.Branch_bound.objective)

let test_scope_cost_matches_bsp_cost () =
  (* For a full-window spec of a lazily-communicated schedule, the scope
     cost must equal total cost minus the latency constant. *)
  let rng = Rng.create 12 in
  let dag = Test_util.random_dag rng ~n:10 ~edge_prob:0.25 ~max_w:3 ~max_c:2 in
  let level = Dag.wavefronts dag in
  let proc = Array.init (Dag.n dag) (fun v -> v mod 2) in
  let sched = Schedule.of_assignment dag ~proc ~step:level in
  let spec = full_spec dag machine2 proc level in
  let scope = Ilp_interval.current_scope_cost spec in
  let total = Bsp_cost.total machine2 sched in
  let latency = Schedule.num_supersteps sched * machine2.Machine.l in
  check "scope = total - latency" (total - latency) scope

let test_interval_respects_boundary () =
  (* Nodes 0,1 fixed in superstep 0 on different processors; node 2 (on
     the window [1,1]) consumes both. Any feasible solution must price
     the transfer of whichever producer sits on the other processor. *)
  let dag =
    Dag.of_edges ~n:3 ~edges:[ (0, 2); (1, 2) ] ~work:[| 1; 1; 1 |] ~comm:[| 3; 5; 1 |]
  in
  let proc = [| 0; 1; 0 |] and step = [| 0; 0; 1 |] in
  let spec =
    {
      Ilp_interval.dag;
      machine = machine2;
      proc = Array.copy proc;
      step = Array.copy step;
      v0 = [ 2 ];
      s_lo = 1;
      s_hi = 1;
    }
  in
  let model, built = Ilp_interval.build spec in
  let outcome = Branch_bound.solve ~max_nodes:2000 model in
  match outcome.Branch_bound.solution with
  | None -> Alcotest.fail "no solution"
  | Some x ->
    let updates = Ilp_interval.extract built x in
    (match updates with
     | [ (2, q, 1) ] ->
       (* Whichever side node 2 lands on, the other producer's volume
          (times g) is unavoidable; the solver should pick processor 0 to
          move only c=3 instead of c=5... wait: on p0 it receives node
          1's value (c=5); on p1 it receives node 0's (c=3). Optimal is
          p1. Work in the window is 1 either way. *)
       check "optimal boundary processor" 1 q
     | _ -> Alcotest.fail "unexpected extraction shape")

let test_ilpinit_lp_converges () =
  (* The first ILPinit model of an spmv instance on p = 8: its W and H
     rows are [>= 0] rows. Started on artificials, phase 1 stalled on
     degenerate pivots and hit the branch-and-bound pivot cap; started on
     their slacks, the LP solves well inside it. *)
  let rng = Rng.create 1 in
  let dag = Finegrained.spmv (Sparse_matrix.random rng ~n:4 ~q:0.3) in
  let n = Dag.n dag in
  let spec =
    {
      Ilp_interval.dag;
      machine = Machine.uniform ~p:8 ~g:3 ~l:5;
      proc = Array.make n (-1);
      step = Array.make n (-1);
      v0 = [ (Dag.topological_order dag).(0) ];
      s_lo = 0;
      s_hi = 2;
    }
  in
  let model, _ = Ilp_interval.build spec in
  check_bool "LP relaxation optimal within 1200 pivots" true
    (match Ilp.lp_relaxation ~max_pivots:1200 model with
     | Simplex.Optimal _ -> true
     | _ -> false);
  let outcome = Branch_bound.solve ~max_nodes:120 model in
  check "no LP failures" 0 outcome.Branch_bound.lp_failures;
  check_bool "proven optimal" true outcome.Branch_bound.proven_optimal

let () =
  Alcotest.run "ilp_interval"
    [
      ( "engine",
        [
          Alcotest.test_case "estimate" `Quick test_estimate_vars;
          Alcotest.test_case "validation" `Quick test_validation_errors;
          Alcotest.test_case "full model schedulable" `Quick
            test_full_model_solution_is_schedulable;
          Alcotest.test_case "scope cost" `Quick test_scope_cost_matches_bsp_cost;
          Alcotest.test_case "boundary pricing" `Quick test_interval_respects_boundary;
          Alcotest.test_case "ilpinit LP converges" `Quick test_ilpinit_lp_converges;
        ] );
    ]
