(** The one harness behind [bench/main.exe] and [bin/soak.exe]: the
    clock, what a failed check does, the BENCH_*.json envelope and the
    argument table.

    A program is a list of named jobs run by {!run}. A failed check
    prints its message, is counted and the job carries on; a job
    with a failed check writes no JSON; the exit status is 1 once every
    job has run when any check failed, 0 otherwise. *)

(** {1 The clock}

    Every reading comes from the monotonic clock, in seconds. *)

(** [time f] runs [f] once: its result and the elapsed seconds. *)
val time : (unit -> 'a) -> 'a * float

(** [best_of f] runs [f] three times: the last run's result and the
    fastest run's seconds. *)
val best_of : (unit -> 'a) -> 'a * float

(** [per_call f] sizes a batch of calls of [f] to fill a millisecond
    (at most 2{^20} calls) and returns a sampler: each call of it times
    one batch and gives the seconds per call of [f]. *)
val per_call : (unit -> 'a) -> unit -> float

(** The upper median of a non-empty list. *)
val median : float list -> float

(** {1 Checks} *)

(** [fail fmt ...] prints the formatted message and a newline on
    standard error and counts one failed check. *)
val fail : ('a, Format.formatter, unit, unit) format4 -> 'a

(** [check ok fmt ...] is [fail fmt ...] when [ok] is false, and
    nothing otherwise. *)
val check : bool -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Failed checks counted by the current (or last) {!run}. *)
val failures : unit -> int

(** {1 Output} *)

(** [write_json file ~bench ?header entries] writes
    [{"bench":BENCH,"K":V,...,"entries":[E,...]}] and a newline to
    [file], one ["K":V] per [header] field, each entry verbatim, and
    prints where it went. When the running job has failed a check
    it writes nothing and says so. *)
val write_json :
  string -> bench:string -> ?header:(string * int) list -> string list -> unit

(** {1 Arguments} *)

type arg =
  | Word of string * bool ref  (** a bare word; set when present *)
  | Count of string * int ref  (** [NAME N]: sets the integer *)

(** [parse table args] applies [args] to [table]. An argument the
    table does not name, or a [Count] without an integer after it, is
    an [Error] naming it. *)
val parse : arg list -> string list -> (unit, string) result

(** [parse_argv ~prog table] is {!parse} over the command line; on an
    error it prints [PROG: MESSAGE] on standard error and exits 2. *)
val parse_argv : prog:string -> arg list -> unit

(** {1 Running} *)

(** [run ~prog jobs] runs every job in order. An exception that
    escapes a job counts as a failed check and ends only that
    job. It then prints [PROG: all checks passed] or
    [PROG: N FAILURES] and returns the exit status: 0, or 1 when any
    check failed. *)
val run : prog:string -> (string * (unit -> unit)) list -> int
