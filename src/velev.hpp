// Umbrella façade header: the whole public surface of the library in one
// include. Tools, examples and out-of-tree users should prefer
//
//   #include "velev.hpp"
//
// over picking individual subsystem headers; the per-module headers remain
// available for translation units that want minimal dependencies.
#pragma once

// support/ — infrastructure shared by every layer.
#include "support/budget.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/mem.hpp"
#include "support/parse_number.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

// eufm/ — the hash-consed EUFM term/formula DAG and its evaluator.
#include "eufm/eval.hpp"
#include "eufm/expr.hpp"
#include "eufm/memsort.hpp"
#include "eufm/print.hpp"
#include "eufm/traverse.hpp"

// prop/ + sat/ — AIG, Tseitin CNF, CDCL solver, DRAT proofs.
#include "prop/cnf.hpp"
#include "prop/prop.hpp"
#include "sat/drat.hpp"
#include "sat/solver.hpp"

// bdd/ — shared ROBDDs with complement edges: the second decision engine.
#include "bdd/bdd.hpp"
#include "bdd/check.hpp"

// tlsim/ + models/ — term-level simulator and the processor models.
#include "models/isa.hpp"
#include "models/ooo.hpp"
#include "models/spec.hpp"
#include "tlsim/netlist.hpp"
#include "tlsim/sim.hpp"

// rewrite/ + evc/ — the paper's rewriting rules and the Positive-Equality
// translation pipeline.
#include "evc/translate.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/update_chain.hpp"

// core/ — Burch–Dill diagram, verifier front end, serializable
// request/response surface, parallel grid runner, shared report writer.
#include "core/diagram.hpp"
#include "core/grid_runner.hpp"
#include "core/report_json.hpp"
#include "core/request.hpp"
#include "core/verifier.hpp"

// serve/ — the velev_serve daemon: result cache, server, wire client.
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

// fuzz/ — seeded differential fuzzing, counterexample decoding, corpus.
#include "fuzz/fuzz.hpp"
