type item =
  | Label of string
  | Ins of Instr.t
  | Comment of string
  | Loc of { line : int; fn : string }

type data_payload =
  | Words of int list
  | Floats of float list
  | Space of int
  | Asciiz of string

type data_item = { dlabel : string; payload : data_payload }
type t = { text : item list; data : data_item list }

let empty = { text = []; data = [] }

let payload_words = function
  | Words ws -> List.length ws
  | Floats fs -> List.length fs
  | Space n -> n
  | Asciiz s -> String.length s + 1

let strip_locs t =
  { t with text = List.filter (function Loc _ -> false | _ -> true) t.text }

let instructions t =
  List.filter_map
    (function Ins i -> Some i | Label _ | Comment _ | Loc _ -> None)
    t.text

type image = {
  instrs : Instr.t array;
  targets : int array;
  code_labels : (string, int) Hashtbl.t;
  data_addr : (string, int) Hashtbl.t;
  data_size : int;
  data_init : (int * Value.t array) list;
  data_base : int;
  entry : int;
  locs : (int * string) option array;
}

let data_base_addr = 0x1000

exception Resolve_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Resolve_error s)) fmt

(* The initializer of a payload, or [None] for [.space]: its words are
   the zeros [Mem.load] starts from. *)
let payload_values = function
  | Words ws -> Some (Array.of_list (List.map Value.int ws))
  | Floats fs -> Some (Array.of_list (List.map Value.flt fs))
  | Space _ -> None
  | Asciiz s ->
    Some
      (Array.init
         (String.length s + 1)
         (fun i -> if i < String.length s then Value.int (Char.code s.[i]) else Value.zero))

let resolve ?(extra_data = []) t =
  (* Pass 1: code label addresses. *)
  let code_labels = Hashtbl.create 64 in
  let n_instrs =
    List.fold_left
      (fun idx item ->
        match item with
        | Label l ->
          if Hashtbl.mem code_labels l then err "duplicate code label %s" l;
          Hashtbl.replace code_labels l idx;
          idx
        | Ins _ -> idx + 1
        | Comment _ | Loc _ -> idx)
      0 t.text
  in
  (* Data layout. *)
  let data_addr = Hashtbl.create 64 in
  let all_data =
    t.data
    @ List.map
        (fun (name, vals) -> { dlabel = name; payload = Space (Array.length vals) })
        (List.filter
           (fun (name, _) -> not (List.exists (fun d -> d.dlabel = name) t.data))
           extra_data)
  in
  let total_words =
    List.fold_left
      (fun off d ->
        if Hashtbl.mem data_addr d.dlabel then err "duplicate data label %s" d.dlabel;
        if Hashtbl.mem code_labels d.dlabel then
          err "label %s defined in both text and data" d.dlabel;
        Hashtbl.replace data_addr d.dlabel (data_base_addr + (4 * off));
        off + payload_words d.payload)
      0 all_data
  in
  let data_size = max total_words 1 in
  let word_of name = (Hashtbl.find data_addr name - data_base_addr) / 4 in
  let declared =
    List.filter_map
      (fun d -> Option.map (fun vals -> (word_of d.dlabel, vals)) (payload_values d.payload))
      t.data
  in
  (* Linked memory-map inputs overwrite their placement: their segments
     come after the declared ones, and share the caller's arrays. *)
  let linked =
    List.map
      (fun (name, vals) ->
        if not (Hashtbl.mem data_addr name) then
          err "memory map names unknown label %s" name;
        let word0 = word_of name in
        if word0 + Array.length vals > data_size then
          err "memory map values for %s overflow its space" name;
        (word0, vals))
      extra_data
  in
  (* Pass 2: flatten instructions, resolve targets. *)
  let instrs = Array.make (max n_instrs 1) Instr.Halt in
  let targets = Array.make (max n_instrs 1) (-1) in
  (* Debug map: a [Loc] directive sets the source position of every
     following instruction until the next one.  Line 0 marks compiler-
     generated code (prologues, the [__start] runtime). *)
  let locs = Array.make (max n_instrs 1) None in
  let cur_loc = ref None in
  let idx = ref 0 in
  List.iter
    (function
      | Label _ | Comment _ -> ()
      | Loc { line; fn } -> cur_loc := Some (line, fn)
      | Ins i ->
        instrs.(!idx) <- i;
        locs.(!idx) <- !cur_loc;
        (match i with
        | Instr.La (_, l) -> (
          match Hashtbl.find_opt data_addr l with
          | Some a -> targets.(!idx) <- a
          | None -> (
            (* la of a code label: used for function pointers in tables *)
            match Hashtbl.find_opt code_labels l with
            | Some a -> targets.(!idx) <- a
            | None -> err "la: undefined label %s" l))
        | _ -> (
          match Instr.target i with
          | None -> ()
          | Some l -> (
            match Hashtbl.find_opt code_labels l with
            | Some a -> targets.(!idx) <- a
            | None -> err "undefined code label %s" l)));
        incr idx)
    t.text;
  let entry =
    match Hashtbl.find_opt code_labels "__start" with
    | Some i -> i
    | None -> (
      match Hashtbl.find_opt code_labels "main" with Some i -> i | None -> 0)
  in
  { instrs; targets; code_labels; data_addr; data_size; data_init = declared @ linked;
    data_base = data_base_addr; entry; locs }

let initial_word img i =
  if i < 0 || i >= img.data_size then invalid_arg "Program.initial_word";
  List.fold_left
    (fun v (word0, vals) ->
      if i >= word0 && i < word0 + Array.length vals then vals.(i - word0) else v)
    Value.zero img.data_init

let address_of img name =
  match Hashtbl.find_opt img.data_addr name with
  | Some a -> a
  | None -> err "address_of: unknown data label %s" name
