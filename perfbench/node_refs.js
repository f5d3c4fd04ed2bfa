// Reference outputs from node for MiniJS programs.
//
// Reads a JSON list of {"digest", "source"} objects on stdin and writes a
// JSON object mapping each digest to the program's printed output. Each
// program runs in a fresh context behind the print shim
//
//   var print = function(){ console.log([].slice.call(arguments).map(String).join(" ")); };
//
// with console.log collecting lines instead of writing them. A program that
// throws makes the whole run fail: a reference must be a clean run.

"use strict";
const vm = require("vm");

const SHIM =
  'var print = function(){ console.log([].slice.call(arguments).map(String).join(" ")); };\n';

let input = "";
process.stdin.setEncoding("utf8");
process.stdin.on("data", (chunk) => (input += chunk));
process.stdin.on("end", () => {
  const out = {};
  for (const p of JSON.parse(input)) {
    const lines = [];
    const context = vm.createContext({
      console: { log: (...args) => lines.push(args.join(" ") + "\n") },
    });
    try {
      vm.runInContext(SHIM + p.source, context, { timeout: 60000 });
    } catch (e) {
      process.stderr.write("node: program " + p.digest + " threw: " + e + "\n");
      process.exit(1);
    }
    out[p.digest] = lines.join("");
  }
  process.stdout.write(JSON.stringify(out));
});
