(* The compiled half of the benchmark (see perfbench/README.md).

   perfbench_tool gen OUTDIR NAME:FAMILY:TARGET:SEED ...
     Generate fine-grained instances, write each as OUTDIR/NAME.hdag, read
     it back and print one JSON object with the node/edge counts.

   perfbench_tool check
     Read "DAGFILE MACHINE SCHEDFILE" lines on stdin; for each, parse the
     schedule, run Validity.check and Profile.reconcile against
     Bsp_cost.breakdown, and print the costs and failures as JSON.

   perfbench_tool replay (pipeline|multilevel) MACHINE SECONDS DAGFILE ...
     For each instance, run Server.Engine.schedule untraced, then replay
     the same stage sequence from exported functions with a timer around
     every layer call, and print the per-layer sums as JSON. Fails when a
     replayed cost differs from the untraced one.

   perfbench_tool serve-replay CACHEDIR INDEXFILE
     Replay a request stream in-process through Request.parse,
     Cache.lookup, Engine.schedule and Cache.store (mirroring
     Engine.handle) with each call timed, and check every status against
     the expected one.

   MACHINE is "u:P:G:L" (Machine.uniform) or "n:P:G:L:DELTA"
   (Machine.numa_tree), the same machines the scheduler CLI builds from
   -p/-g/-l/--numa-delta. *)

let now = Unix.gettimeofday

let machine_of_spec spec =
  match List.map int_of_string_opt (List.tl (String.split_on_char ':' spec)) with
  | [ Some p; Some g; Some l ] when String.starts_with ~prefix:"u:" spec ->
    Machine.uniform ~p ~g ~l
  | [ Some p; Some g; Some l; Some delta ] when String.starts_with ~prefix:"n:" spec ->
    Machine.numa_tree ~p ~g ~l ~delta
  | _ -> failwith ("bad machine spec: " ^ spec)

let json_print j = print_endline (Obs.Json.to_string_compact j)

(* ------------------------------------------------------------------ *)
(* gen *)

let family_of_string = function
  | "spmv" -> Finegrained.Spmv
  | "exp" -> Finegrained.Exp
  | "cg" -> Finegrained.Cg
  | "knn" -> Finegrained.Knn
  | f -> failwith ("unknown family: " ^ f)

let gen outdir specs =
  let one spec =
    match String.split_on_char ':' spec with
    | [ name; family; target; seed ] ->
      let rng = Rng.create (int_of_string seed) in
      let dag =
        Finegrained.generate_sized rng ~family:(family_of_string family)
          ~shape:Finegrained.Wide ~target:(int_of_string target)
      in
      let path = Filename.concat outdir (name ^ ".hdag") in
      Hyperdag_io.write_file path dag;
      let back = Hyperdag_io.read_file_auto path in
      if Dag.structural_hash back <> Dag.structural_hash dag then
        failwith ("hyperDAG round trip changed " ^ path);
      Obs.Json.Obj
        [
          ("name", Obs.Json.String name);
          ("family", Obs.Json.String family);
          ("seed", Obs.Json.Int (int_of_string seed));
          ("n", Obs.Json.Int (Dag.n dag));
          ("m", Obs.Json.Int (Dag.num_edges dag));
        ]
    | _ -> failwith ("bad instance spec: " ^ spec)
  in
  json_print (Obs.Json.Obj [ ("instances", Obs.Json.List (List.map one specs)) ])

(* ------------------------------------------------------------------ *)
(* Correctness of one schedule: valid, and its profile reconciles with
   the cost breakdown. Returns the cost and the failures found. *)

let audit machine sched =
  let b = Bsp_cost.breakdown machine sched in
  let errors =
    (match Validity.check machine sched with
     | Ok () -> []
     | Error errs -> [ "invalid: " ^ String.concat "; " errs ])
    @
    match Profile.reconcile (Profile.compute machine sched) b with
    | Ok () -> []
    | Error msg -> [ "profile does not reconcile: " ^ msg ]
  in
  (b.Bsp_cost.total, errors)

let check () =
  let dags = Hashtbl.create 16 in
  let dag_of path =
    match Hashtbl.find_opt dags path with
    | Some d -> d
    | None ->
      let d = Hyperdag_io.read_file_auto path in
      Hashtbl.add dags path d;
      d
  in
  let rec loop acc =
    match In_channel.input_line stdin with
    | None -> List.rev acc
    | Some line when String.trim line = "" -> loop acc
    | Some line ->
      let result =
        match String.split_on_char ' ' (String.trim line) with
        | [ dag_path; spec; sched_path ] ->
          (try
             let machine = machine_of_spec spec in
             let sched = Schedule_io.read_file (dag_of dag_path) sched_path in
             let cost, errors = audit machine sched in
             Obs.Json.Obj
               [
                 ("cost", Obs.Json.Int cost);
                 ("errors", Obs.Json.List (List.map (fun e -> Obs.Json.String e) errors));
               ]
           with Failure msg | Sys_error msg | Invalid_argument msg ->
             Obs.Json.Obj
               [
                 ("cost", Obs.Json.Null);
                 ("errors", Obs.Json.List [ Obs.Json.String msg ]);
               ])
        | _ -> failwith ("bad check line: " ^ line)
      in
      loop (result :: acc)
  in
  json_print (Obs.Json.Obj [ ("results", Obs.Json.List (loop [])) ])


(* ------------------------------------------------------------------ *)
(* Layer timers. A timed call adds its wall seconds to [<layer>_s] and
   its minor words (millions) to [<layer>_mwords]. Calls made while
   another timed call is open (the layers inside the multilevel coarse
   solve) add only to their own layer; [attributed] sums the outermost
   calls, so coverage never counts a second twice. Side measurements
   (coarsening on its own session, the DAG read and hash, the final
   checks) run outside the replayed sequence and are kept out of its
   wall time. *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = Option.value ~default:0.0 (Hashtbl.find_opt sums name)
let add name v = Hashtbl.replace sums name (get name +. v)
let depth = ref 0
let attributed = ref 0.0
let side = ref 0.0

let measure f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  (r, now () -. t0, (Gc.minor_words () -. w0) /. 1e6)

let timed name f =
  incr depth;
  let r, dt, dw = Fun.protect ~finally:(fun () -> decr depth) (fun () -> measure f) in
  add (name ^ "_s") dt;
  add (name ^ "_mwords") dw;
  if !depth = 0 then attributed := !attributed +. dt;
  (r, dt, dw)

let timed_ name f =
  let r, _, _ = timed name f in
  r

let side_timed name f =
  let r, dt, dw = measure f in
  add (name ^ "_s") dt;
  add (name ^ "_mwords") dw;
  side := !side +. dt;
  (r, dt, dw)

let count name v = add name (float_of_int v)
let cost = Bsp_cost.total

(* Pipeline's per-stage budget, which it does not export. *)
let stage_budget (limits : Pipeline.limits) evals =
  match limits.Pipeline.stage_seconds with
  | None -> Budget.steps evals
  | Some s -> Budget.combine (Budget.steps evals) (Budget.seconds s)

(* An ILP stage is given one stage share; time beyond it is overrun. *)
let timed_stage name (limits : Pipeline.limits) f =
  let r, dt, _ = timed name f in
  let share = Option.value ~default:infinity limits.Pipeline.stage_seconds in
  add (name ^ "_overrun_s") (Float.max 0.0 (dt -. share));
  r

(* Branch_bound counts its solves in the ambient metrics registry, which
   the replay installs; ILPinit has no report to count them from. *)
let bb_solves () =
  match Obs.Metrics.current () with
  | Some r -> Obs.Metrics.counter_value r "bb.solves"
  | None -> 0

let bb_nodes (r : Ilp_schedulers.report) = count "ilp.bb_nodes" r.Ilp_schedulers.bb_nodes

(* Pipeline.local_search: HC, compact, superstep merge, HCcs. *)
let local_search (limits : Pipeline.limits) machine sched =
  let hc_budget = stage_budget limits limits.Pipeline.hc_evals in
  let hc, stats =
    timed_ "localsearch.hc" (fun () ->
        Hc.improve ~check:limits.Pipeline.hc_check ~budget:hc_budget
          ~shards:limits.Pipeline.hc_shards machine sched)
  in
  count "localsearch.hc_evals" stats.Hc.moves_evaluated;
  count "localsearch.hc_applied" stats.Hc.moves_applied;
  let compacted = timed_ "schedule.compact" (fun () -> Schedule.compact hc) in
  let merged = timed_ "schedule.merge" (fun () -> Superstep_merge.greedy machine compacted) in
  count "schedule.merge_removed"
    (Schedule.num_supersteps compacted - Schedule.num_supersteps merged);
  let hccs_budget = stage_budget limits limits.Pipeline.hccs_evals in
  fst (timed_ "localsearch.hccs" (fun () -> Hccs.improve ~budget:hccs_budget machine merged))

(* Pipeline.run_stages without extra initialisers and with replication
   off: what Engine.schedule runs for "pipeline". *)
let replay_pipeline ~(limits : Pipeline.limits) ~with_trivial_init machine dag =
  let ilp_init () =
    let solves0 = bb_solves () in
    let s =
      timed_stage "ilp_sched.init" limits (fun () ->
          Ilp_schedulers.init
            ~budget:(stage_budget limits limits.Pipeline.ilp_init_nodes)
            ~max_vars:limits.Pipeline.ilp_init_max_vars ~max_nodes:limits.Pipeline.ilp_init_nodes
            machine dag)
    in
    count "ilp_sched.init_sub_solves" (bb_solves () - solves0);
    s
  in
  let inits =
    [
      (fun () -> timed_ "heuristics.bspg" (fun () -> Bspg.schedule machine dag));
      (fun () -> timed_ "heuristics.source" (fun () -> Source_heuristic.schedule machine dag));
    ]
    @ (if with_trivial_init then
         [ (fun () -> timed_ "heuristics.trivial" (fun () -> Schedule.trivial dag)) ]
       else [])
    @ if limits.Pipeline.use_ilp && limits.Pipeline.use_ilp_init then [ ilp_init ] else []
  in
  let candidates =
    List.map
      (fun init ->
        let improved = local_search limits machine (init ()) in
        (improved, cost machine improved))
      inits
  in
  let best, best_cost =
    match candidates with
    | [] -> assert false
    | first :: rest ->
      List.fold_left (fun (bs, bc) (s, c) -> if c < bc then (s, c) else (bs, bc)) first rest
  in
  let best = ref best and best_cost = ref best_cost in
  let keep s =
    let c = cost machine s in
    if c < !best_cost then begin
      best := s;
      best_cost := c
    end
  in
  let optimal = ref false in
  if limits.Pipeline.use_ilp then begin
    let full_budget = stage_budget limits limits.Pipeline.ilp_full_nodes in
    let full_sched, full_report =
      timed_ "ilp_sched.full" (fun () ->
          Ilp_schedulers.full ~budget:full_budget ~max_vars:limits.Pipeline.ilp_full_max_vars
            ~max_nodes:limits.Pipeline.ilp_full_nodes machine (Schedule.with_lazy_comm !best))
    in
    bb_nodes full_report;
    optimal :=
      full_report.Ilp_schedulers.sub_solves > 0 && full_report.Ilp_schedulers.proven_optimal;
    keep full_sched;
    if not !optimal then begin
      let part_budget = stage_budget limits limits.Pipeline.ilp_part_nodes in
      let part_sched, part_report =
        timed_stage "ilp_sched.part" limits (fun () ->
            Ilp_schedulers.part ~budget:part_budget ~max_vars:limits.Pipeline.ilp_part_max_vars
              ~max_nodes:limits.Pipeline.ilp_part_nodes machine (Schedule.with_lazy_comm !best))
      in
      bb_nodes part_report;
      count "ilp_sched.part_sub_solves" part_report.Ilp_schedulers.sub_solves;
      let polish_budget = stage_budget limits limits.Pipeline.hccs_evals in
      keep
        (fst
           (timed_ "localsearch.hccs" (fun () ->
                Hccs.improve ~budget:polish_budget machine part_sched)))
    end
  end;
  if limits.Pipeline.use_ilp && not !optimal then begin
    let cs_budget = stage_budget limits limits.Pipeline.ilp_cs_nodes in
    let cs_sched, cs_report =
      timed_ "ilp_sched.cs" (fun () ->
          Ilp_schedulers.comm_schedule ~budget:cs_budget ~max_vars:limits.Pipeline.ilp_cs_max_vars
            ~max_nodes:limits.Pipeline.ilp_cs_nodes machine !best)
    in
    bb_nodes cs_report;
    keep cs_sched
  end;
  !best

(* Pipeline.run_multilevel at one job: per ratio, Multilevel.run_ratio
   with the base pipeline (ILPcs withheld) as the coarse solver, then the
   HCcs + ILPcs polish; the cheapest ratio wins, ties to the earlier. *)
let replay_multilevel ~(limits : Pipeline.limits) machine dag =
  let config = Multilevel.default_config in
  let solver_limits = { limits with Pipeline.ilp_cs_nodes = 0; Pipeline.ilp_cs_max_vars = 0 } in
  let solver m d =
    timed_ "multilevel.coarse_solve" (fun () ->
        Schedule.with_lazy_comm (replay_pipeline ~limits:solver_limits ~with_trivial_init:false m d))
  in
  let one ratio =
    (* run_ratio coarsens internally; the same coarsening is measured
       on a session of its own so refinement can be told apart. *)
    let target = max 2 (int_of_float (ratio *. float_of_int (Dag.n dag))) in
    let (), coarsen_dt, coarsen_dw =
      let session = Coarsen.start dag in
      side_timed "multilevel.coarsen" (fun () ->
          Coarsen.coarsen_to ~strategy:config.Multilevel.strategy session ~target)
    in
    let solve_dt0 = get "multilevel.coarse_solve_s" in
    let solve_dw0 = get "multilevel.coarse_solve_mwords" in
    let ml_budget = stage_budget limits limits.Pipeline.hc_evals in
    let sched, dt, dw =
      timed "multilevel.run_ratio" (fun () ->
          Multilevel.run_ratio ~budget:ml_budget ~strategy:config.Multilevel.strategy
            ~shards:limits.Pipeline.hc_shards ~refine_interval:config.Multilevel.refine_interval
            ~refine_moves:config.Multilevel.refine_moves ~solver ~ratio machine dag)
    in
    let solve_dt = get "multilevel.coarse_solve_s" -. solve_dt0 in
    let solve_dw = get "multilevel.coarse_solve_mwords" -. solve_dw0 in
    add "multilevel.refine_s" (Float.max 0.0 (dt -. solve_dt -. coarsen_dt));
    add "multilevel.refine_mwords" (Float.max 0.0 (dw -. solve_dw -. coarsen_dw));
    let hccs_budget = stage_budget limits limits.Pipeline.hccs_evals in
    let hccs, _ =
      timed_ "localsearch.hccs" (fun () -> Hccs.improve ~budget:hccs_budget machine sched)
    in
    if limits.Pipeline.use_ilp then begin
      let cs_budget = stage_budget limits limits.Pipeline.ilp_cs_nodes in
      let cs, report =
        timed_ "ilp_sched.cs" (fun () ->
            Ilp_schedulers.comm_schedule ~budget:cs_budget ~max_vars:limits.Pipeline.ilp_cs_max_vars
              ~max_nodes:limits.Pipeline.ilp_cs_nodes machine hccs)
      in
      bb_nodes report;
      if cost machine cs < cost machine hccs then cs else hccs
    end
    else hccs
  in
  match List.map one config.Multilevel.ratios with
  | [] -> invalid_arg "Multilevel.default_config has no ratios"
  | first :: rest ->
    List.fold_left (fun b c -> if cost machine c < cost machine b then c else b) first rest

(* The limits Engine.schedule derives from the budget. *)
let engine_limits seconds =
  { Pipeline.thorough_limits with Pipeline.stage_seconds = Some (seconds /. 6.0) }

let metrics_json extra =
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) sums []) in
  Obs.Json.Obj (List.map (fun k -> (k, Obs.Json.Float (get k))) keys @ extra)

let errors_json errors = Obs.Json.List (List.map (fun e -> Obs.Json.String e) errors)
let ints_json xs = Obs.Json.List (List.map (fun x -> Obs.Json.Int x) xs)

let replay kind spec seconds paths =
  let machine = machine_of_spec spec in
  let limits = engine_limits seconds in
  let registry = Obs.Metrics.create () in
  let untraced_walls = ref [] and replay_wall = ref 0.0 in
  let one path =
    let dag, _, _ = side_timed "dag.read" (fun () -> Hyperdag_io.read_file_auto path) in
    ignore (side_timed "dag.hash" (fun () -> Dag.structural_hash dag));
    let untraced () =
      let s, dt, _ =
        measure (fun () ->
            Server.Engine.schedule ~seconds ~seed:1 ~replicate:false ~algorithm:kind machine dag)
      in
      untraced_walls := dt :: !untraced_walls;
      s
    in
    let traced () =
      let side0 = !side in
      let s, dt, _ =
        measure (fun () ->
            Obs.Metrics.with_registry registry (fun () ->
                match kind with
                | "pipeline" -> replay_pipeline ~limits ~with_trivial_init:true machine dag
                | "multilevel" -> replay_multilevel ~limits machine dag
                | _ -> failwith ("replay: unsupported algorithm " ^ kind)))
      in
      replay_wall := !replay_wall +. dt -. (!side -. side0);
      s
    in
    (* alternate which run goes first, so warm-up favours neither *)
    let untraced, replayed =
      if List.length !untraced_walls mod 2 = 0 then
        let u = untraced () in
        (u, traced ())
      else
        let r = traced () in
        (untraced (), r)
    in
    let (c, errors), _, _ = side_timed "schedule.validity" (fun () -> audit machine replayed) in
    let cu = cost machine untraced in
    let errors =
      if c = cu then errors
      else Printf.sprintf "%s: replayed cost %d differs from untraced %d" path c cu :: errors
    in
    (cu, c, errors)
  in
  let results = List.map one paths in
  let errors = List.concat_map (fun (_, _, e) -> e) results in
  let untraced_walls = List.rev !untraced_walls in
  let untraced_wall = List.fold_left ( +. ) 0.0 untraced_walls in
  let evals = get "localsearch.hc_evals" in
  json_print
    (Obs.Json.Obj
       [
         ("ok", Obs.Json.Bool (errors = []));
         ("errors", errors_json errors);
         ("untraced_costs", ints_json (List.map (fun (c, _, _) -> c) results));
         ("replay_costs", ints_json (List.map (fun (_, c, _) -> c) results));
         ("untraced_walls", Obs.Json.List (List.map (fun w -> Obs.Json.Float w) untraced_walls));
         ( "metrics",
           metrics_json
             [
               ("core.replay_wall_s", Obs.Json.Float !replay_wall);
               ("core.untraced_wall_s", Obs.Json.Float untraced_wall);
               ("core.coverage", Obs.Json.Float (!attributed /. !replay_wall));
               ("core.unattributed_s", Obs.Json.Float (!replay_wall -. !attributed));
               ("core.trace_overhead", Obs.Json.Float ((!replay_wall /. untraced_wall) -. 1.0));
               ( "localsearch.hc_apply_ratio",
                 Obs.Json.Float
                   (if evals > 0.0 then get "localsearch.hc_applied" /. evals else 0.0) );
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* serve-replay: Engine.handle with every call timed. Each line of the
   index is "REQUESTFILE DAGFILE EXPECTED-STATUS". *)

let serve_replay cache_dir index =
  let lines =
    In_channel.with_open_bin index In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let statuses = ref [] and costs = ref [] and errors = ref [] in
  let fail msg = errors := msg :: !errors in
  let t0 = now () in
  List.iteri
    (fun i line ->
      match String.split_on_char ' ' line with
      | [ req_file; dag_file; expected ] ->
        let doc = In_channel.with_open_bin req_file In_channel.input_all in
        ignore (side_timed "dag.read" (fun () -> Hyperdag_io.read_file_auto dag_file));
        let req = timed_ "server.parse" (fun () -> Server.Request.parse ~id:req_file doc) in
        ignore (side_timed "dag.hash" (fun () -> Dag.structural_hash req.Server.Request.dag));
        let machine = req.Server.Request.machine and algorithm = req.Server.Request.algorithm in
        let key = timed_ "server.key" (fun () -> Server.Engine.request_key req) in
        let cached =
          timed_ "server.lookup" (fun () ->
              Server.Cache.lookup ~dir:cache_dir ~dag:req.Server.Request.dag key)
        in
        let status, c =
          match cached with
          | Some e
            when (not (Server.Engine.budget_sensitive algorithm))
                 || req.Server.Request.seconds <= e.Server.Cache.seconds_budget ->
            ("hit", e.Server.Cache.cost)
          | _ ->
            let warm =
              match cached with
              | Some e when algorithm = "pipeline" -> Some e.Server.Cache.schedule
              | _ -> None
            in
            let sched =
              timed_ "server.compute" (fun () ->
                  Server.Engine.schedule ?warm ~seconds:req.Server.Request.seconds
                    ~seed:req.Server.Request.seed ~replicate:req.Server.Request.replicate
                    ~algorithm machine req.Server.Request.dag)
            in
            (match timed_ "schedule.validity" (fun () -> Validity.check machine sched) with
             | Ok () -> ()
             | Error errs -> fail (req_file ^ ": invalid: " ^ String.concat "; " errs));
            let c = cost machine sched in
            let sched, c, budget =
              match cached with
              | None -> (sched, c, req.Server.Request.seconds)
              | Some e ->
                let budget = Float.max req.Server.Request.seconds e.Server.Cache.seconds_budget in
                if e.Server.Cache.cost <= c then (e.Server.Cache.schedule, e.Server.Cache.cost, budget)
                else (sched, c, budget)
            in
            timed_ "server.store" (fun () ->
                Server.Cache.store ~dir:cache_dir ~key ~algorithm ~cost:c ~seconds_budget:budget
                  sched);
            ((if Option.is_none cached then "miss" else "refresh"), c)
        in
        if status = "hit" then count "server.hits" 1;
        if status <> expected then
          fail (Printf.sprintf "request %d: status %s, expected %s" i status expected);
        statuses := status :: !statuses;
        costs := c :: !costs
      | _ -> failwith ("bad index line: " ^ line))
    lines;
  let wall = now () -. t0 -. !side in
  let n = List.length lines in
  let errors = List.rev !errors in
  json_print
    (Obs.Json.Obj
       [
         ("ok", Obs.Json.Bool (errors = []));
         ("errors", errors_json errors);
         ("statuses", Obs.Json.List (List.rev_map (fun s -> Obs.Json.String s) !statuses));
         ("costs", ints_json (List.rev !costs));
         ( "metrics",
           metrics_json
             [
               ("core.replay_wall_s", Obs.Json.Float wall);
               ("core.coverage", Obs.Json.Float (!attributed /. wall));
               ("core.unattributed_s", Obs.Json.Float (wall -. !attributed));
               ( "server.hit_ratio",
                 Obs.Json.Float (if n = 0 then 0.0 else get "server.hits" /. float_of_int n) );
             ] );
       ])

let () =
  (* scheduling runs at one job, whatever BSP_JOBS says *)
  Par.set_jobs 1;
  match Array.to_list Sys.argv with
  | _ :: "gen" :: outdir :: specs -> gen outdir specs
  | [ _; "check" ] -> check ()
  | _ :: "replay" :: kind :: spec :: seconds :: paths ->
    replay kind spec (float_of_string seconds) paths
  | [ _; "serve-replay"; cache_dir; index ] -> serve_replay cache_dir index
  | _ ->
    prerr_endline
      "usage: perfbench_tool (gen OUTDIR SPEC... | check | replay ALGO MACHINE SECONDS DAG... \
       | serve-replay CACHEDIR INDEX)";
    exit 2
