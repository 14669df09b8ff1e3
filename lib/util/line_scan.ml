type t = {
  text : string;
  mutable pos : int;  (* start of the next line; past the end once done *)
  mutable line : int;
  mutable count : int;
  mutable offsets : int array;  (* token i spans offsets.(2i) .. offsets.(2i+1) - 1 *)
}

let create text = { text; pos = 0; line = 0; count = 0; offsets = Array.make 32 0 }

let push t a b =
  let k = 2 * t.count in
  if k = Array.length t.offsets then t.offsets <- Array.append t.offsets (Array.make k 0);
  t.offsets.(k) <- a;
  t.offsets.(k + 1) <- b;
  t.count <- t.count + 1

let next t =
  let s = t.text and n = String.length t.text in
  t.pos <= n
  && begin
       t.line <- t.line + 1;
       t.count <- 0;
       let i = ref t.pos in
       while !i < n && s.[!i] <> '\n' && s.[!i] <> '#' do
         let a = !i in
         (* to the next blank, newline or comment; [!i < n] bounds the read *)
         while
           !i < n
           && match String.unsafe_get s !i with ' ' | '\t' | '\r' | '\n' | '#' -> false | _ -> true
         do
           incr i
         done;
         if !i > a then push t a !i else incr i
       done;
       t.pos <- (match String.index_from_opt s !i '\n' with Some e -> e + 1 | None -> n + 1);
       true
     end

let line t = t.line
let count t = t.count

let offset t i k =
  if i < 0 || i >= t.count then invalid_arg "Line_scan: no such token";
  t.offsets.((2 * i) + k)

let start t i = offset t i 0
let stop t i = offset t i 1
let token t i = String.sub t.text (start t i) (stop t i - start t i)

(* a top-level loop: a local closure would allocate on every call *)
let rec equal_from text a s j = j = String.length s || (text.[a + j] = s.[j] && equal_from text a s (j + 1))
let is t i s = stop t i - start t i = String.length s && equal_from t.text (start t i) s 0
