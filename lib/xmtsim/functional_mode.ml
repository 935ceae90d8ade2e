module I = Isa.Instr
module F = Funcmodel

type result = {
  output : string;
  instructions : int;
  halted : bool;
  stats : Stats.t;
}

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

type state = {
  img : Isa.Program.image;
  memory : Mem.t;
  read_str : int -> string;
  globals : int array;
  st_stats : Stats.t;
  out : Buffer.t;
  join_of : (int, int) Hashtbl.t;
  master : F.ctx;
  mutable executed : int;
  mutable st_halted : bool;
  rp : Reuseprofile.t option;  (** reuse-profile harvest (predict mode) *)
  counts : int array;  (* executions per pc in the open spawn, folded at its end *)
}

let init ?profile img =
  let master = F.make_ctx () in
  master.F.pc <- img.Isa.Program.entry;
  let memory = Mem.load img in
  {
    img;
    memory;
    read_str = Mem.read_string memory;
    globals = Array.make Isa.Reg.num_globals 0;
    st_stats = Stats.create ();
    out = Buffer.create 256;
    join_of = F.join_map ~error:(fun s -> Exec_error s) img;
    master;
    executed = 0;
    st_halted = false;
    rp = profile;
    counts = Array.make (Array.length img.Isa.Program.instrs) 0;
  }

(* reuse-profile taps: instruction classes and memory addresses are only
   visible here, so the harvest rides the interpreter loop *)
let rp_instrs t ~master ins n =
  match t.rp with
  | Some p -> Reuseprofile.on_instrs p ~master ins n
  | None -> ()

let rp_access t ~master ~ro ~nb ~kind ~addr =
  match t.rp with
  | Some p -> Reuseprofile.on_access p ~master ~ro ~nb ~kind ~addr
  | None -> ()

(* The effect of the Load, Store, Psm, Prefetch or Ps [ctx] issued. *)
let load t ctx ~master =
  let addr = ctx.F.addr in
  rp_access t ~master ~ro:ctx.F.ro ~nb:false ~kind:`Load ~addr;
  F.complete_load ctx ctx.F.dst (Mem.read t.memory addr)

let store t ctx ~master =
  let addr = ctx.F.addr in
  rp_access t ~master ~ro:false ~nb:ctx.F.nb ~kind:`Store ~addr;
  Mem.write t.memory addr ctx.F.value

let psm t ctx ~master =
  let addr = ctx.F.addr in
  t.st_stats.Stats.psm_ops <- t.st_stats.Stats.psm_ops + 1;
  rp_access t ~master ~ro:false ~nb:false ~kind:`Psm ~addr;
  let old = Mem.fetch_add t.memory addr ctx.F.inc in
  if ctx.F.dst <> 0 then ctx.F.regs.(ctx.F.dst) <- old

let prefetch t ctx ~master =
  rp_access t ~master ~ro:false ~nb:false ~kind:`Prefetch ~addr:ctx.F.addr

let ps t ctx ~dst ~g ~inc =
  if inc <> 0 && inc <> 1 then fail "ps increment must be 0 or 1 (got %d)" inc;
  t.st_stats.Stats.ps_ops <- t.st_stats.Stats.ps_ops + 1;
  let old = t.globals.(g) in
  t.globals.(g) <- old + inc;
  if dst <> 0 then ctx.F.regs.(dst) <- old

(* Run one serial-boundary step: either a single master instruction, or a
   whole spawn (all virtual threads, serialized). *)
let step ?(on_instr = fun ~pc:_ -> ()) (t : state) =
  let read_str = t.read_str in
  let ctx = t.master in
  let pc = ctx.F.pc in
  let ins = t.img.Isa.Program.instrs.(pc) in
  t.executed <- t.executed + 1;
  Stats.count_instr t.st_stats ~master:true ins;
  rp_instrs t ~master:true ins 1;
  on_instr ~pc;
  match F.issue t.img ctx ~read_str with
  | F.Done -> ()
  | F.Load -> load t ctx ~master:true
  | F.Store -> store t ctx ~master:true
  | F.Psm -> psm t ctx ~master:true
  | F.Prefetch -> prefetch t ctx ~master:true
  | F.Ps { dst; g; inc } -> ps t ctx ~dst ~g ~inc
  | F.Spawn { lo; hi } ->
    t.st_stats.Stats.spawns <- t.st_stats.Stats.spawns + 1;
    let spawn_idx = pc in
    let join_idx =
      match Hashtbl.find_opt t.join_of spawn_idx with
      | Some j -> j
      | None -> fail "spawn without join at %d" spawn_idx
    in
    (* serialize: one context runs the dispatch loop for all ids *)
    t.globals.(Isa.Reg.g_spawn) <- lo;
    let bound = hi in
    (match t.rp with
    | Some p ->
      Reuseprofile.enter_spawn p ~pc:spawn_idx ~threads:(hi - lo + 1)
    | None -> ());
    let thread = F.make_ctx () in
    F.copy_regs ~src:ctx ~dst:thread;
    thread.F.pc <- spawn_idx + 1;
    let counts = t.counts in
    (* Count the spawn's instructions per pc, and by class once it ends
       (or fails): nothing reads the counters in between, and two calls
       per instruction cost the interpreter about a third of its time. *)
    let fold () =
      for pc = spawn_idx + 1 to join_idx - 1 do
        let n = counts.(pc) in
        if n > 0 then begin
          counts.(pc) <- 0;
          let ins = t.img.Isa.Program.instrs.(pc) in
          Stats.count_instrs t.st_stats ~master:false ins n;
          rp_instrs t ~master:false ins n
        end
      done
    in
    let finished = ref false in
    Fun.protect ~finally:fold (fun () ->
        while not !finished do
          let tpc = thread.F.pc in
          if tpc <= spawn_idx || tpc >= join_idx then
            fail
              "functional mode: pc %d escaped the spawn region (%d,%d) — block \
               not broadcast (Fig. 9)"
              tpc spawn_idx join_idx;
          t.executed <- t.executed + 1;
          counts.(tpc) <- counts.(tpc) + 1;
          on_instr ~pc:tpc;
          match F.issue t.img thread ~read_str with
          | F.Done -> ()
          | F.Load -> load t thread ~master:false
          | F.Store -> store t thread ~master:false
          | F.Psm -> psm t thread ~master:false
          | F.Prefetch -> prefetch t thread ~master:false
          | F.Ps { dst; g; inc } -> ps t thread ~dst ~g ~inc
          | F.Chkid { id } ->
            if id <= bound then begin
              t.st_stats.Stats.virtual_threads <-
                t.st_stats.Stats.virtual_threads + 1;
              (* a fresh virtual thread begins: deal it onto the next vTCU
                 stream so the harvest sees hardware-like interleaving *)
              match t.rp with Some p -> Reuseprofile.on_thread p | None -> ()
            end
            else finished := true
          | F.Fence ->
            t.st_stats.Stats.fences <- t.st_stats.Stats.fences + 1;
            (match t.rp with Some p -> Reuseprofile.on_fence p | None -> ())
          | F.Output s -> Buffer.add_string t.out s
          | F.Spawn _ -> fail "nested spawn executed by a virtual thread"
          | F.Join -> fail "virtual thread reached join"
          | F.Halt -> fail "virtual thread executed halt"
          | F.Mfg _ | F.Mtg _ -> fail "virtual thread executed mfg/mtg"
        done);
    (match t.rp with Some p -> Reuseprofile.exit_spawn p | None -> ());
    ctx.F.pc <- join_idx + 1
  | F.Join -> fail "join reached in serial flow"
  | F.Chkid _ -> fail "chkid in serial flow"
  | F.Mfg { dst; g } -> if dst <> 0 then ctx.F.regs.(dst) <- t.globals.(g)
  | F.Mtg { g; src } -> t.globals.(g) <- src
  | F.Fence -> (
    match t.rp with Some p -> Reuseprofile.on_fence p | None -> ())
  | F.Output s -> Buffer.add_string t.out s
  | F.Halt -> t.st_halted <- true

let advance ?on_instr t ~budget =
  let target = t.executed + budget in
  (try
     while (not t.st_halted) && t.executed < target do
       step ?on_instr t
     done
   with F.Runtime_error { pc; msg } -> fail "runtime error at pc %d: %s" pc msg);
  if t.st_halted then `Halted else `Paused

let instructions t = t.executed
let halted t = t.st_halted
let output t = Buffer.contents t.out
let stats t = t.st_stats

let snapshot t =
  Machine.make_snapshot ~image:t.img ~mem:(Mem.snapshot t.memory)
    ~regs:(Array.copy t.master.F.regs)
    ~fregs:(Array.copy t.master.F.fregs)
    ~pc:t.master.F.pc
    ~globals:(Array.copy t.globals)
    ~output:(Buffer.contents t.out)

let run ?(max_instructions = 2_000_000_000) ?profile img =
  let t = init ?profile img in
  (match advance t ~budget:max_instructions with
  | `Halted -> ()
  | `Paused -> fail "instruction budget exhausted");
  {
    output = Buffer.contents t.out;
    instructions = t.executed;
    halted = t.st_halted;
    stats = t.st_stats;
  }
