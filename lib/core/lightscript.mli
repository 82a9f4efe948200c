(** Lightscript: the sandboxed scripting runtime that plays the role of
    the JavaScript inside a domain's code blob (§3.2).

    A code blob is a Lightscript program defining (at least) two
    functions:

    - [plan(path, state)] — given the requested path (relative to the
      domain) and the domain's local-storage object, return the list of
      data-blob keys to fetch. The browser pads/truncates the list to the
      universe's fixed fetch count, so [plan] cannot leak through request
      counts.
    - [render(path, state, data)] — given the fetched data blobs (JSON
      values, [null] for missing), return the page text.

    The language is expression-oriented over JSON values: literals, lists,
    objects, arithmetic/comparison/boolean operators, [let]/assignment,
    [if]/[else], [for ... in], [return], user function calls and a fixed
    builtin library. There is no I/O, no recursion-unsafe ambient
    authority, and every evaluation step burns gas, so a hostile
    publisher's code cannot hang the browser. Local-storage writes are
    returned as effects for the browser to apply ([store(key, value)]),
    never applied directly.

    Syntax example:
    {[
      fn plan(path, state) {
        let zip = get(state, "zip", "00000");
        return ["weather.com/by-zip/" + zip + ".json"];
      }
      fn render(path, state, data) {
        if (data[0] == null) { return "no forecast"; }
        return "Forecast: " + get(data[0], "summary", "?");
      }
    ]} *)

type program

type error = { line : int; message : string }

val parse : string -> (program, error) result

val has_function : program -> string -> bool

type effect_ = Store of string * Lw_json.Json.t

exception Runtime_error of string
exception Out_of_gas

val run :
  ?gas:int ->
  program ->
  fn:string ->
  args:Lw_json.Json.t list ->
  (Lw_json.Json.t * effect_ list, string) result
(** [run p ~fn ~args] calls function [fn]; default gas budget 200_000
    steps. All failure modes (unknown function, arity, runtime type
    errors, gas exhaustion) come back as [Error]. *)

val pp_error : Format.formatter -> error -> unit
