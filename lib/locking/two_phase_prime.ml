open Core

let aux_lock v = v ^ "'"

let transform_transaction ~distinguished i accesses =
  let uses_x = Array.exists (String.equal distinguished) accesses in
  if not uses_x then Two_phase.transform_transaction i accesses
  else begin
    let m = Array.length accesses in
    let first = Hashtbl.create 8 and last = Hashtbl.create 8 in
    Array.iteri
      (fun j v ->
        if not (Hashtbl.mem first v) then Hashtbl.add first v j;
        Hashtbl.replace last v j)
      accesses;
    let x = distinguished in
    let xl = Two_phase.lock_name x in
    let x' = aux_lock x in
    (* Stages 1-3: actions with lock insertions and the X' protocol. *)
    let stage =
      List.concat
        (List.init m (fun j ->
             let v = accesses.(j) in
             let pre =
               if Hashtbl.find first v = j then
                 [ Locked.Lock (Two_phase.lock_name v) ]
               else []
             in
             let post_first =
               if String.equal v x && Hashtbl.find first x = j then
                 [ Locked.Lock x'; Locked.Unlock x' ]
               else []
             in
             let post_last =
               if String.equal v x && Hashtbl.find last x = j then
                 [ Locked.Lock x'; Locked.Unlock xl ]
               else []
             in
             pre @ (Locked.Action (Names.step i j) :: post_first) @ post_last))
    in
    let seq = Array.of_list stage in
    let len = Array.length seq in
    (* locks_remaining.(k) = does a Lock occur at position >= k? *)
    let locks_remaining = Array.make (len + 1) false in
    for k = len - 1 downto 0 do
      locks_remaining.(k) <-
        locks_remaining.(k + 1)
        || (match seq.(k) with Locked.Lock _ -> true | _ -> false)
    done;
    (* Pass 2: emit, inserting two-phase unlocks for non-x variables and
       the final unlock of X' once no lock lies ahead. *)
    let out = ref [] in
    let emit s = out := s :: !out in
    let unlocked = Hashtbl.create 8 in
    let x'_held = ref false in
    let x'_released = ref false in
    let actions_done = ref (-1) in
    let pending_unlocks () =
      Hashtbl.fold
        (fun v j acc ->
          if
            (not (String.equal v x))
            && (not (Hashtbl.mem unlocked v))
            && j <= !actions_done
          then (j, v) :: acc
          else acc)
        last []
      |> List.sort (fun a b -> compare b a)
    in
    Array.iteri
      (fun k s ->
        emit s;
        (match s with
        | Locked.Action id -> actions_done := id.Names.idx
        | Locked.Lock l when String.equal l x' -> x'_held := true
        | Locked.Unlock l when String.equal l x' -> x'_held := false
        | Locked.Lock _ | Locked.Unlock _ -> ());
        if not locks_remaining.(k + 1) then begin
          List.iter
            (fun (_, v) ->
              Hashtbl.add unlocked v ();
              emit (Locked.Unlock (Two_phase.lock_name v)))
            (pending_unlocks ());
          if !x'_held && not !x'_released then begin
            x'_released := true;
            emit (Locked.Unlock x')
          end
        end)
      seq;
    List.rev !out
  end

let policy ~distinguished =
  Policy.separable
    ("2PL'(" ^ distinguished ^ ")")
    (transform_transaction ~distinguished)

(* A variable-free syntax gets a fixed nonsense name, which no step ever
   locks anyway. *)
let on_first_var syntax =
  policy
    ~distinguished:(match Syntax.vars syntax with v :: _ -> v | [] -> "x")

let apply ~distinguished syntax = (policy ~distinguished).Policy.apply syntax
