(* Tests for the util library: rationals, PRNG, list helpers. *)

open Util

let rat = Alcotest.testable (fun ppf r -> Rat.pp ppf r) Rat.equal

let test_make_normalizes () =
  Alcotest.check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.check rat "-6/-4 = 3/2" (Rat.make 3 2) (Rat.make (-6) (-4));
  Alcotest.check rat "6/-4 = -3/2" (Rat.make (-3) 2) (Rat.make 6 (-4));
  Alcotest.check rat "0/7 = 0" Rat.zero (Rat.make 0 7)

let test_make_zero_den () =
  Alcotest.check_raises "zero denominator" (Invalid_argument "Rat.make: zero denominator")
    (fun () -> ignore (Rat.make 1 0))

let test_arith () =
  let half = Rat.make 1 2 and third = Rat.make 1 3 in
  Alcotest.check rat "1/2+1/3" (Rat.make 5 6) (Rat.add half third);
  Alcotest.check rat "1/2-1/3" (Rat.make 1 6) (Rat.sub half third);
  Alcotest.check rat "1/2*1/3" (Rat.make 1 6) (Rat.mul half third);
  Alcotest.check rat "(1/2)/(1/3)" (Rat.make 3 2) (Rat.div half third)

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero))

let test_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
  Alcotest.(check int) "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
  Alcotest.(check int) "floor 4" 4 (Rat.floor (Rat.of_int 4))

let test_compare () =
  Alcotest.(check bool) "1/2 < 2/3" true (Rat.compare (Rat.make 1 2) (Rat.make 2 3) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Rat.compare (Rat.make (-1) 2) (Rat.make 1 3) < 0);
  Alcotest.(check int) "sign -3/4" (-1) (Rat.sign (Rat.make (-3) 4))

let test_to_int () =
  Alcotest.(check int) "to_int 5" 5 (Rat.to_int (Rat.of_int 5));
  Alcotest.check_raises "to_int 1/2" (Invalid_argument "Rat.to_int: not an integer")
    (fun () -> ignore (Rat.to_int (Rat.make 1 2)))

(* qcheck: field laws on random rationals *)
let rat_gen =
  QCheck2.Gen.(
    map2 (fun n d -> Rat.make n (if d = 0 then 1 else d)) (int_range (-1000) 1000)
      (int_range (-50) 50))

let prop_add_comm =
  QCheck2.Test.make ~name:"rat add commutative" ~count:500
    QCheck2.Gen.(pair rat_gen rat_gen)
    (fun (a, b) -> Rat.equal (Rat.add a b) (Rat.add b a))

let prop_mul_distrib =
  QCheck2.Test.make ~name:"rat mul distributes over add" ~count:500
    QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_sub_add =
  QCheck2.Test.make ~name:"rat a-b+b = a" ~count:500
    QCheck2.Gen.(pair rat_gen rat_gen)
    (fun (a, b) -> Rat.equal a (Rat.add (Rat.sub a b) b))

let prop_floor_le =
  QCheck2.Test.make ~name:"floor(x) <= x < floor(x)+1" ~count:500 rat_gen
    (fun a ->
      let f = Rat.of_int (Rat.floor a) in
      Rat.compare f a <= 0 && Rat.compare a (Rat.add f Rat.one) < 0)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_range () =
  let g = Prng.create 7 in
  for _ = 1 to 200 do
    let v = Prng.range g 3 9 in
    Alcotest.(check bool) "in range" true (v >= 3 && v <= 9)
  done

let test_prng_float () =
  let g = Prng.create 3 in
  for _ = 1 to 200 do
    let x = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_listx () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1; 2 ] (Listx.take 5 [ 1; 2 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check int) "perms 3" 6 (List.length (Listx.permutations [ 1; 2; 3 ]));
  Alcotest.(check int) "perms 4" 24 (List.length (Listx.permutations [ 1; 2; 3; 4 ]));
  Alcotest.(check (option int)) "index_of" (Some 1)
    (Listx.index_of (fun x -> x = 5) [ 3; 5; 7 ]);
  Alcotest.(check (option int)) "index_of missing" None
    (Listx.index_of (fun x -> x = 9) [ 3; 5; 7 ]);
  Alcotest.(check int) "sum_by" 6 (Listx.sum_by (fun x -> x) [ 1; 2; 3 ]);
  Alcotest.(check int) "last" 3 (Listx.last [ 1; 2; 3 ]);
  Alcotest.(check int) "pairs incl diagonal" 9 (List.length (Listx.pairs [ 1; 2; 3 ]))

(* Env.parse_* validate the four POLARIS_* switches and, as Cmdliner
   converters, the CLI's numeric and path flags; pin accepted forms,
   clamping and rejection of malformed values.  parse_jobs reads
   POLARIS_JOBS and -j *)
let test_env_parse_jobs () =
  let rejected s =
    match Env.parse_jobs s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "plain" true (Env.parse_jobs "4" = Ok 4);
  Alcotest.(check bool) "whitespace trimmed" true (Env.parse_jobs " 8 " = Ok 8);
  Alcotest.(check bool) "huge count clamps to the ceiling" true
    (Env.parse_jobs "9999" = Ok Env.max_jobs);
  Alcotest.(check bool) "zero rejected" true (rejected "0");
  Alcotest.(check bool) "negative rejected" true (rejected "-3");
  Alcotest.(check bool) "non-numeric rejected" true (rejected "four");
  Alcotest.(check bool) "empty rejected" true (rejected "")

(* POLARIS_RUNTIME_PROCS and --real-procs: the real executor's domain
   count, read with the same parser as POLARIS_JOBS *)
let test_env_parse_procs () =
  let rejected s =
    match Env.parse_jobs s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "plain" true (Env.parse_jobs "4" = Ok 4);
  Alcotest.(check bool) "one is fine (serial)" true (Env.parse_jobs "1" = Ok 1);
  Alcotest.(check bool) "whitespace trimmed" true (Env.parse_jobs " 8 " = Ok 8);
  Alcotest.(check bool) "huge count clamps to the ceiling" true
    (Env.parse_jobs "9999" = Ok Env.max_jobs);
  Alcotest.(check bool) "zero rejected" true (rejected "0");
  Alcotest.(check bool) "negative rejected" true (rejected "-2");
  Alcotest.(check bool) "non-numeric rejected" true (rejected "all");
  Alcotest.(check bool) "empty rejected" true (rejected "");
  Alcotest.(check bool) "the runtime count is in range" true
    (Env.runtime_procs >= 1 && Env.runtime_procs <= Env.max_jobs)

let test_env_parse_flag () =
  let rejected s =
    match Env.parse_flag s with Error _ -> true | Ok _ -> false
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " is true") true (Env.parse_flag s = Ok true))
    [ "1"; "true"; "YES"; "On"; " true " ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " is false") true (Env.parse_flag s = Ok false))
    [ "0"; "false"; "No"; "OFF" ];
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") true (rejected s))
    [ ""; "2"; "enable"; "oui" ]

(* the daemon's store bound, --max-cache-mb *)
let test_env_parse_mb () =
  let rejected s = match Env.parse_mb s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "plain" true (Env.parse_mb "64" = Ok 64);
  Alcotest.(check bool) "whitespace trimmed" true (Env.parse_mb " 128 " = Ok 128);
  Alcotest.(check bool) "zero rejected (store off = no --store)" true
    (rejected "0");
  Alcotest.(check bool) "negative rejected" true (rejected "-5");
  Alcotest.(check bool) "non-numeric rejected" true (rejected "big");
  Alcotest.(check bool) "empty rejected" true (rejected "")

(* counts: the simulated -p and the daemon's --max-sessions,
   --flush-every and --max-pipeline *)
let test_env_parse_count () =
  let rejected s =
    match Env.parse_count s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "plain" true (Env.parse_count "64" = Ok 64);
  Alcotest.(check bool) "one is fine" true (Env.parse_count "1" = Ok 1);
  Alcotest.(check bool) "unclamped" true (Env.parse_count "100000" = Ok 100000);
  Alcotest.(check bool) "zero rejected" true (rejected "0");
  Alcotest.(check bool) "negative rejected" true (rejected "-3");
  Alcotest.(check bool) "non-numeric rejected" true (rejected "many");
  Alcotest.(check bool) "empty rejected" true (rejected "")

(* durations: the daemon's --idle-timeout and --flush-interval and the
   client's --timeout *)
let test_env_parse_seconds () =
  let rejected s =
    match Env.parse_seconds s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "integer seconds" true (Env.parse_seconds "30" = Ok 30.0);
  Alcotest.(check bool) "fractional seconds" true
    (Env.parse_seconds "0.25" = Ok 0.25);
  Alcotest.(check bool) "zero rejected (would evict everyone)" true
    (rejected "0");
  Alcotest.(check bool) "negative rejected" true (rejected "-1.5");
  Alcotest.(check bool) "nan rejected" true (rejected "nan");
  Alcotest.(check bool) "inf rejected" true (rejected "inf");
  Alcotest.(check bool) "non-numeric rejected" true (rejected "soon")

(* paths: the daemon's --socket and --store *)
let test_env_parse_path () =
  Alcotest.(check bool) "plain path" true
    (Env.parse_path "/tmp/cache" = Ok "/tmp/cache");
  Alcotest.(check bool) "trimmed" true (Env.parse_path " /a/b " = Ok "/a/b");
  Alcotest.(check bool) "empty rejected" true
    (match Env.parse_path "" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "whitespace-only rejected" true
    (match Env.parse_path "   " with Error _ -> true | Ok _ -> false)

let tests =
  [ ("rat normalization", `Quick, test_make_normalizes);
    ("env jobs parsing", `Quick, test_env_parse_jobs);
    ("env flag parsing", `Quick, test_env_parse_flag);
    ("env cache-size parsing", `Quick, test_env_parse_mb);
    ("env count parsing", `Quick, test_env_parse_count);
    ("env seconds parsing", `Quick, test_env_parse_seconds);
    ("env runtime-procs parsing", `Quick, test_env_parse_procs);
    ("env path parsing", `Quick, test_env_parse_path);
    ("rat zero denominator", `Quick, test_make_zero_den);
    ("rat arithmetic", `Quick, test_arith);
    ("rat division by zero", `Quick, test_div_by_zero);
    ("rat floor/ceil", `Quick, test_floor_ceil);
    ("rat compare", `Quick, test_compare);
    ("rat to_int", `Quick, test_to_int);
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng range", `Quick, test_prng_range);
    ("prng float", `Quick, test_prng_float);
    ("listx helpers", `Quick, test_listx) ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_add_comm; prop_mul_distrib; prop_sub_add; prop_floor_le ]
