(* The v2 marker is a comment line, so v1 readers that strip comments
   would still parse the assignment and events of a v2 file; only the
   replica lines are new. We nevertheless keep emitting the v1 format
   for replica-free schedules so byte-identical outputs are preserved
   for every pre-replication workflow. *)
let v2_marker = "% bsp schedule v2"

let to_string (t : Schedule.t) =
  let buf = Buffer.create 4096 in
  let n = Dag.n t.Schedule.dag in
  let num_reps = Schedule.num_replicas t in
  if num_reps = 0 then begin
    Buffer.add_string buf "% bsp schedule: node/proc/superstep, then comm events\n";
    Buffer.add_string buf (Printf.sprintf "%d %d\n" n (List.length t.Schedule.comm))
  end
  else begin
    Buffer.add_string buf (v2_marker ^ ": node/proc/superstep, comm events, replicas\n");
    Buffer.add_string buf
      (Printf.sprintf "%d %d %d\n" n (List.length t.Schedule.comm) num_reps)
  end;
  for v = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d %d %d\n" v t.Schedule.proc.(v) t.Schedule.step.(v))
  done;
  List.iter
    (fun (e : Schedule.comm_event) ->
      Buffer.add_string buf (Printf.sprintf "%d %d %d %d\n" e.node e.src e.dst e.step))
    t.Schedule.comm;
  if num_reps > 0 then
    for v = 0 to n - 1 do
      Schedule.iter_replicas t v (fun q s ->
          Buffer.add_string buf (Printf.sprintf "%d %d %d\n" v q s))
    done;
  Buffer.contents buf

let of_string dag text =
  let raw_lines = String.split_on_char '\n' text |> List.map String.trim in
  (* Version detection must look at comment lines before they are
     stripped: the version marker is itself a comment. *)
  let v2 =
    List.exists
      (fun l ->
        String.length l >= String.length v2_marker
        && String.sub l 0 (String.length v2_marker) = v2_marker)
      raw_lines
  in
  let lines = List.filter (fun l -> l <> "" && l.[0] <> '%') raw_lines in
  let ints line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some i -> i
           | None -> failwith ("Schedule_io: not an integer: " ^ s))
  in
  match lines with
  | [] -> failwith "Schedule_io: empty input"
  | header :: rest ->
    let n, num_events, num_reps =
      match (ints header, v2) with
      | [ n; e ], false -> (n, e, 0)
      | [ n; e; r ], true -> (n, e, r)
      | _, false -> failwith "Schedule_io: header must be <nodes> <events>"
      | _, true -> failwith "Schedule_io: v2 header must be <nodes> <events> <replicas>"
    in
    if n <> Dag.n dag then failwith "Schedule_io: node count does not match the DAG";
    let expected = n + num_events + num_reps in
    let got = List.length rest in
    if got < expected then failwith "Schedule_io: truncated file";
    if got > expected then
      failwith
        (Printf.sprintf
           "Schedule_io: %d trailing non-comment line(s) after the declared %d \
            assignment + %d event%s line(s)"
           (got - expected) n num_events
           (if num_reps > 0 then Printf.sprintf " + %d replica" num_reps else ""));
    let proc = Array.make n 0 and step = Array.make n 0 in
    List.iteri
      (fun i line ->
        if i < n then
          match ints line with
          | [ v; p; s ] when v >= 0 && v < n ->
            proc.(v) <- p;
            step.(v) <- s
          | _ -> failwith "Schedule_io: bad assignment line")
      rest;
    let events =
      List.filteri (fun i _ -> i >= n && i < n + num_events) rest
      |> List.map (fun line ->
             match ints line with
             | [ node; src; dst; phase ] -> { Schedule.node; src; dst; step = phase }
             | _ -> failwith "Schedule_io: bad comm event line")
    in
    if num_reps = 0 then Schedule.make dag ~proc ~step ~comm:events
    else begin
      let replicas =
        List.filteri (fun i _ -> i >= n + num_events) rest
        |> List.map (fun line ->
               match ints line with
               | [ v; q; s ] when v >= 0 && v < n -> (v, q, s)
               | _ -> failwith "Schedule_io: bad replica line")
      in
      Schedule.make_replicated dag ~proc ~step ~comm:events ~replicas
    end

let write_file path t = Atomic_file.write_string path (to_string t)

(* One bulk read instead of the historical one-channel-read-per-byte
   loop: [Buffer.add_channel buf ic 1] paid a full channel dispatch for
   every byte, which is pathological for large schedules and for the
   serve daemon's cache-hit path. *)
let read_file dag path =
  In_channel.with_open_bin path (fun ic -> of_string dag (In_channel.input_all ic))
