let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

let opt = function
  | Simplex.Optimal { obj; x } -> (obj, x)
  | Simplex.Infeasible -> Alcotest.fail "unexpected Infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected Unbounded"
  | Simplex.Iteration_limit -> Alcotest.fail "unexpected Iteration_limit"

let test_textbook_max () =
  (* max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> (8/5, 6/5). *)
  let r =
    Simplex.minimize ~num_vars:2
      ~obj:[ (0, -1.0); (1, -1.0) ]
      ~rows:
        [|
          ([ (0, 1.0); (1, 2.0) ], Simplex.Le, 4.0);
          ([ (0, 3.0); (1, 1.0) ], Simplex.Le, 6.0);
        |]
      ~lb:[| 0.0; 0.0 |] ~ub:[| infinity; infinity |] ()
  in
  let obj, x = opt r in
  check_float "obj" (-2.8) obj;
  check_float "x" 1.6 x.(0);
  check_float "y" 1.2 x.(1)

let test_infeasible () =
  let r =
    Simplex.minimize ~num_vars:1 ~obj:[ (0, 1.0) ]
      ~rows:[| ([ (0, 1.0) ], Simplex.Le, -1.0) |]
      ~lb:[| 0.0 |] ~ub:[| infinity |] ()
  in
  check_bool "infeasible" true (r = Simplex.Infeasible)

let test_unbounded () =
  let r =
    Simplex.minimize ~num_vars:1 ~obj:[ (0, -1.0) ] ~rows:[||] ~lb:[| 0.0 |]
      ~ub:[| infinity |] ()
  in
  check_bool "unbounded" true (r = Simplex.Unbounded)

let test_equality_and_bounds () =
  (* min x - y s.t. x + y = 3, 0 <= x <= 1 -> x = 0, y = 3. *)
  let r =
    Simplex.minimize ~num_vars:2
      ~obj:[ (0, 1.0); (1, -1.0) ]
      ~rows:[| ([ (0, 1.0); (1, 1.0) ], Simplex.Eq, 3.0) |]
      ~lb:[| 0.0; 0.0 |] ~ub:[| 1.0; infinity |] ()
  in
  let obj, x = opt r in
  check_float "obj" (-3.0) obj;
  check_float "x" 0.0 x.(0);
  check_float "y" 3.0 x.(1)

let test_ge_constraints () =
  (* min 2x + 3y s.t. x + y >= 4, x >= 1 -> (4, 0) obj 8. *)
  let r =
    Simplex.minimize ~num_vars:2
      ~obj:[ (0, 2.0); (1, 3.0) ]
      ~rows:
        [|
          ([ (0, 1.0); (1, 1.0) ], Simplex.Ge, 4.0);
          ([ (0, 1.0) ], Simplex.Ge, 1.0);
        |]
      ~lb:[| 0.0; 0.0 |] ~ub:[| infinity; infinity |] ()
  in
  let obj, x = opt r in
  check_float "obj" 8.0 obj;
  check_float "x" 4.0 x.(0)

let test_shifted_lower_bounds () =
  (* min x + y with x >= 2, y >= 3 and x + y >= 7 -> obj 7. *)
  let r =
    Simplex.minimize ~num_vars:2
      ~obj:[ (0, 1.0); (1, 1.0) ]
      ~rows:[| ([ (0, 1.0); (1, 1.0) ], Simplex.Ge, 7.0) |]
      ~lb:[| 2.0; 3.0 |] ~ub:[| infinity; infinity |] ()
  in
  let obj, x = opt r in
  check_float "obj" 7.0 obj;
  check_bool "x >= lb" true (x.(0) >= 2.0 -. 1e-9);
  check_bool "y >= lb" true (x.(1) >= 3.0 -. 1e-9)

let test_negative_rhs_flip () =
  (* -x <= -2 is x >= 2. *)
  let r =
    Simplex.minimize ~num_vars:1 ~obj:[ (0, 1.0) ]
      ~rows:[| ([ (0, -1.0) ], Simplex.Le, -2.0) |]
      ~lb:[| 0.0 |] ~ub:[| infinity |] ()
  in
  let obj, _ = opt r in
  check_float "obj" 2.0 obj

let test_degenerate () =
  (* Multiple redundant constraints through the optimum; exercises the
     Bland fallback without cycling. *)
  let r =
    Simplex.minimize ~num_vars:2
      ~obj:[ (0, -1.0) ]
      ~rows:
        [|
          ([ (0, 1.0) ], Simplex.Le, 1.0);
          ([ (0, 1.0); (1, 0.0) ], Simplex.Le, 1.0);
          ([ (0, 1.0); (1, 1.0) ], Simplex.Le, 1.0);
          ([ (0, 2.0); (1, 2.0) ], Simplex.Le, 2.0);
        |]
      ~lb:[| 0.0; 0.0 |] ~ub:[| infinity; infinity |] ()
  in
  let obj, _ = opt r in
  check_float "obj" (-1.0) obj

(* Property: on random feasible-by-construction LPs, the simplex result
   is feasible and no random feasible point beats it. The zero right-hand
   side [Ge] rows [x_i - x_j >= 0] start on their slack rather than on an
   artificial, so both starting bases are covered. *)
let prop_simplex_optimality =
  let gen =
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 1 6 in
      let* m = int_range 1 6 in
      let* k = int_range 0 3 in
      return (seed, n, m, k))
  in
  Test_util.qtest ~count:200 "simplex optimal vs sampled points" gen
    (fun (seed, n, m, k) ->
      let rng = Rng.create seed in
      (* Constraints a . x <= b with a >= 0 and b > 0: the box near the
         origin is feasible and the LP is bounded when c >= 0 is
         minimised... we minimise c . x with c possibly negative but add
         a cap sum x <= 10 to keep it bounded. *)
      let rows =
        Array.init m (fun _ ->
            let coeffs =
              List.init n (fun j -> (j, float_of_int (Rng.int rng 5)))
              |> List.filter (fun (_, c) -> c > 0.0)
            in
            (coeffs, Simplex.Le, float_of_int (1 + Rng.int rng 20)))
      in
      let orders =
        Array.init k (fun _ ->
            let i = Rng.int rng n in
            let j = Rng.int rng n in
            ([ (i, 1.0); (j, -1.0) ], Simplex.Ge, 0.0))
      in
      let cap = (List.init n (fun j -> (j, 1.0)), Simplex.Le, 10.0) in
      let rows = Array.concat [ rows; orders; [| cap |] ] in
      let obj = List.init n (fun j -> (j, float_of_int (Rng.int rng 9 - 4))) in
      let lb = Array.make n 0.0 and ub = Array.make n infinity in
      match Simplex.minimize ~num_vars:n ~obj ~rows ~lb ~ub () with
      | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit -> false
      | Simplex.Optimal { obj = v; x } ->
        let feasible pt =
          Array.for_all
            (fun (coeffs, sense, b) ->
              let lhs = List.fold_left (fun acc (j, c) -> acc +. (c *. pt.(j))) 0.0 coeffs in
              match sense with
              | Simplex.Le -> lhs <= b +. 1e-6
              | Simplex.Ge -> lhs >= b -. 1e-6
              | Simplex.Eq -> Float.abs (lhs -. b) <= 1e-6)
            rows
          && Array.for_all (fun xi -> xi >= -1e-9) pt
        in
        let value pt = List.fold_left (fun acc (j, c) -> acc +. (c *. pt.(j))) 0.0 obj in
        if not (feasible x) then false
        else if Float.abs (value x -. v) > 1e-6 then false
        else begin
          (* Sample feasible points by scaling random directions. *)
          let ok = ref true in
          for _ = 1 to 50 do
            let pt = Array.init n (fun _ -> Rng.float rng 3.0) in
            if feasible pt && value pt < v -. 1e-6 then ok := false
          done;
          !ok
        end)

let () =
  Alcotest.run "lp"
    [
      ( "unit",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "equality and bounds" `Quick test_equality_and_bounds;
          Alcotest.test_case "ge constraints" `Quick test_ge_constraints;
          Alcotest.test_case "shifted lower bounds" `Quick test_shifted_lower_bounds;
          Alcotest.test_case "negative rhs flip" `Quick test_negative_rhs_flip;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
        ] );
      ("property", [ prop_simplex_optimality ]);
    ]
