(** Backend registry: every emission target is a first-class value.

    The compiler's output stage is a lookup in this table — CLI, daemon
    and benchmark all resolve [--emit-backend] here,
    so adding a backend is one entry, and the validate and test matrices
    enumerate [all] instead of hard-coding names. *)

type family = Fortran | C

type t = {
  b_name : string;
  b_doc : string;
  b_family : family;
  b_reparses : bool;
      (** output is valid input for our own frontend (round-trip lane) *)
  b_ext : string;  (** file extension, without the dot *)
  b_emit : Fir.Program.t -> string;
}

let f77 =
  { b_name = "f77";
    b_doc = "Fortran 77 with CPOLARIS$ comment directives (the default; \
             byte-stable, re-parses with our frontend)";
    b_family = Fortran;
    b_reparses = true;
    b_ext = "f";
    b_emit = Frontend.Unparse.program_to_string ?mode:None }

let f77_omp =
  { b_name = "f77-omp";
    b_doc = "Fortran 77 with !$OMP PARALLEL DO directives carrying \
             PRIVATE/LASTPRIVATE/REDUCTION clauses from the compiler's \
             verdicts (compile with -fopenmp -ffixed-line-length-none \
             -fdefault-real-8)";
    b_family = Fortran;
    b_reparses = true;
    b_ext = "f";
    b_emit = F77_omp.emit }

let c =
  { b_name = "c";
    b_doc = "portable C99 with #pragma omp parallel for on proven DOALL \
             loops (compile with -fopenmp -lm)";
    b_family = C;
    b_reparses = false;
    b_ext = "c";
    b_emit = Cgen.emit }

let all = [ f77; f77_omp; c ]

let default = f77

let names = List.map (fun b -> b.b_name) all

let find name : (t, string) result =
  let name = String.lowercase_ascii (String.trim name) in
  match List.find_opt (fun b -> String.equal b.b_name name) all with
  | Some b -> Ok b
  | None ->
    Error
      (Fmt.str "unknown backend '%s' (known: %s)" name
         (String.concat ", " names))

let pp_backends ppf () =
  List.iter
    (fun b ->
      Fmt.pf ppf "%-10s %s@."
        b.b_name
        b.b_doc)
    all
