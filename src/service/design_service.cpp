#include "service/design_service.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "core/core.h"
#include "core/trace.h"
#include "fd/selection.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "service/protocol.h"
#include "stem/cell.h"
#include "stem/editor.h"
#include "stem/io.h"
#include "stem/report.h"

namespace stemcp::service {

using core::Status;
using core::Value;

const char* to_string(RequestType t) {
  switch (t) {
    case RequestType::kOpen: return "open";
    case RequestType::kLoad: return "load";
    case RequestType::kSave: return "save";
    case RequestType::kAssign: return "assign";
    case RequestType::kBatchAssign: return "batch-assign";
    case RequestType::kEdit: return "edit";
    case RequestType::kQuery: return "query";
    case RequestType::kReport: return "report";
    case RequestType::kClose: return "close";
    case RequestType::kJournal: return "journal";
    case RequestType::kCheckpoint: return "checkpoint";
    case RequestType::kRecover: return "recover";
    case RequestType::kSelect: return "select";
    case RequestType::kSelectStats: return "select-stats";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Request execution (session mutex held)

namespace {

void fill_propagation_outcome(Response& resp, core::PropagationContext& ctx,
                              std::uint64_t restores_before, Status st) {
  resp.violation = st.is_violation();
  if (resp.violation && ctx.last_violation()) {
    resp.violation_message = ctx.last_violation()->to_string();
  }
  resp.variables_restored = ctx.stats().restores - restores_before;
}

void do_load(DesignSession& s, const Request& r, Response& resp) {
  try {
    env::LibraryReader::read_string(s.library(), r.text);
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
    return;
  }
  resp.ok = true;
  resp.text = "loaded " + std::to_string(s.library().cells().size()) +
              " cell(s)";
}

void do_save(DesignSession& s, Response& resp) {
  resp.text = env::LibraryWriter::to_string(s.library());
  resp.ok = true;
}

void do_assign(DesignSession& s, const Request& r, Response& resp,
               bool batched) {
  core::PropagationContext& ctx = s.library().context();
  std::vector<std::pair<core::Variable*, double>> targets;
  targets.reserve(r.assignments.size());
  for (const Assignment& a : r.assignments) {
    core::Variable* v = s.find_variable(a.variable);
    if (v == nullptr) {
      resp.error = "unknown variable '" + a.variable + "'";
      return;
    }
    targets.emplace_back(v, a.value);
  }
  const std::uint64_t restores_before = ctx.stats().restores;
  Status st = Status::ok();
  if (batched) {
    // One propagation wave for the whole batch: every assignment lands
    // before the single agenda drain and final check sweep; a violation
    // restores the entire wave (all-or-nothing).
    std::uint64_t applied = 0;
    st = ctx.run_session([&]() -> Status {
      for (auto& [var, value] : targets) {
        const Status one =
            var->set_in_session(Value(value), core::Justification::user());
        if (one.is_violation()) return one;
        ++applied;
      }
      return Status::ok();
    });
    resp.assignments_applied = st.is_violation() ? 0 : applied;
  } else {
    for (auto& [var, value] : targets) {
      st = var->set_user(Value(value));
      if (st.is_violation()) break;
      ++resp.assignments_applied;
    }
  }
  resp.ok = true;
  fill_propagation_outcome(resp, ctx, restores_before, st);
}

env::CellClass* require_cell(DesignSession& s, const std::string& name,
                             Response& resp) {
  env::CellClass* c = s.library().find(name);
  if (c == nullptr) resp.error = "unknown cell '" + name + "'";
  return c;
}

/// One structural edit (docs/SERVICE.md): LibraryReader runs the library
/// statement the command names.  Propagating edits report violation/restore
/// outcomes like assignments do; a refused edit changes nothing.
void do_edit(DesignSession& s, const Request& r, Response& resp) {
  core::PropagationContext& ctx = s.library().context();
  const std::uint64_t restores_before = ctx.stats().restores;
  Status st = Status::ok();
  try {
    st = env::LibraryReader::edit(s.library(), r.text);
  } catch (const std::exception& e) {
    resp.error = e.what();
    return;
  }
  resp.ok = true;
  resp.text = "applied: " + r.text;
  fill_propagation_outcome(resp, ctx, restores_before, st);
}

/// Shared front half of select / select-stats: parse the slot list and build
/// the SelectionSpace.  Grammar (docs/SOLVER.md):
///   <cell> [slot <subcell>]... [limit <n>] [commit]
/// With no explicit slots, every generic-classed subcell of <cell> becomes a
/// slot.  Returns nullptr with resp.error set on a parse/lookup failure.
std::unique_ptr<fd::SelectionSpace> parse_selection(
    DesignSession& s, const Request& r, Response& resp, std::size_t* limit,
    bool* commit) {
  std::istringstream in(r.text);
  std::string cell;
  if (!(in >> cell)) {
    resp.error =
        "select needs a cell: <cell> [slot <subcell>]... [limit <n>] [commit]";
    return nullptr;
  }
  env::CellClass* c = require_cell(s, cell, resp);
  if (c == nullptr) return nullptr;
  std::vector<env::CellInstance*> slots;
  std::string word;
  while (in >> word) {
    if (word == "slot") {
      std::string inst;
      if (!(in >> inst)) {
        resp.error = "slot needs a subcell name";
        return nullptr;
      }
      env::CellInstance* i = c->find_subcell(inst);
      if (i == nullptr) {
        resp.error = "unknown subcell '" + inst + "' on " + cell;
        return nullptr;
      }
      if (!i->cls().is_generic()) {
        resp.error = "subcell '" + inst + "' is not generic (" +
                     i->cls().name() + ")";
        return nullptr;
      }
      slots.push_back(i);
    } else if (word == "limit") {
      if (!(in >> *limit)) {
        in.clear();
        resp.error = "limit needs a number";
        return nullptr;
      }
    } else if (word == "commit") {
      *commit = true;
    } else {
      resp.error = "unknown select option '" + word +
                   "' (expected: slot <subcell>, limit <n>, commit)";
      return nullptr;
    }
  }
  if (slots.empty()) {
    for (const auto& sub : c->subcells()) {
      if (sub->cls().is_generic()) slots.push_back(sub.get());
    }
  }
  if (slots.empty()) {
    resp.error = "no generic slots in '" + cell + "'";
    return nullptr;
  }
  auto space = std::make_unique<fd::SelectionSpace>(s.library());
  for (env::CellInstance* i : slots) space->add_slot(i->cls(), *i);
  return space;
}

/// FD module selection over the session's library.  Journaled even without
/// `commit`: costing a candidate (cost_of, valid_bbox_for) calls
/// StemVariable::demand(), which assigns a missing class bounding box as
/// #APPLICATION and propagates it, so a non-committing select changes state
/// that recovery must replay.
void do_select(DesignSession& s, const Request& r, Response& resp) {
  core::PropagationContext& ctx = s.library().context();
  const std::uint64_t restores_before = ctx.stats().restores;
  std::size_t limit = 0;  // all
  bool commit = false;
  const auto space = parse_selection(s, r, resp, &limit, &commit);
  if (space == nullptr) return;
  const std::size_t found = space->solve(commit ? 1 : limit);

  std::ostringstream out;
  for (std::size_t i = 0; i < space->solutions().size(); ++i) {
    out << "solution " << i << ":";
    const auto& sol = space->solutions()[i];
    for (std::size_t k = 0; k < space->slots().size(); ++k) {
      out << ' ' << space->slots()[k].instance->name() << '='
          << sol[k]->name();
    }
    out << '\n';
  }
  const fd::SelectionSpace::Stats& st = space->stats();
  out << found << " solution(s); explored " << st.candidates_explored
      << " candidate(s), pruned " << st.subtrees_pruned << " subtree(s), "
      << st.nodes << " search node(s)\n";
  if (commit) {
    if (found == 0) {
      out << "nothing to commit\n";
    } else {
      const auto replaced = space->commit(0);
      resp.assignments_applied = replaced.size();
      s.selection_tally().commits += replaced.size();
      out << "committed solution 0:";
      for (const env::CellInstance* i : replaced) {
        out << ' ' << i->name() << '=' << i->cls().name();
      }
      out << '\n';
    }
  }
  DesignSession::SelectionTally& tally = s.selection_tally();
  ++tally.requests;
  tally.solutions += found;
  tally.candidates_explored += st.candidates_explored;
  tally.subtrees_pruned += st.subtrees_pruned;
  resp.text = out.str();
  resp.ok = true;
  fill_propagation_outcome(resp, ctx, restores_before, Status::ok());
}

/// Dry-run selection: same search, but the response is the exploration
/// counters (FD vs generate-and-test ammunition) and nothing is committed.
void do_select_stats(DesignSession& s, const Request& r, Response& resp) {
  std::size_t limit = 0;
  bool commit = false;
  const auto space = parse_selection(s, r, resp, &limit, &commit);
  if (space == nullptr) return;
  if (commit) {
    resp.error = "select-stats never commits (use: select ... commit)";
    return;
  }
  const std::size_t found = space->solve(limit);
  const fd::SelectionSpace::Stats& st = space->stats();
  std::ostringstream out;
  out << "slots: " << space->slots().size() << '\n';
  for (const auto& slot : space->slots()) {
    out << "  " << slot.instance->name() << ": " << slot.candidates.size()
        << " candidate(s) after filtering\n";
  }
  out << "solutions: " << found << '\n'
      << "candidates explored: " << st.candidates_explored << '\n'
      << "subtrees pruned: " << st.subtrees_pruned << '\n'
      << "search nodes: " << st.nodes << ", fails: " << st.fails << '\n'
      << "filter runs: " << space->problem().stats().filter_runs
      << ", prunings: " << space->problem().stats().prunings
      << ", wipeouts: " << space->problem().stats().wipeouts << '\n';
  DesignSession::SelectionTally& tally = s.selection_tally();
  ++tally.requests;
  tally.solutions += found;
  tally.candidates_explored += st.candidates_explored;
  tally.subtrees_pruned += st.subtrees_pruned;
  out << "session totals: " << tally.requests << " selection request(s), "
      << tally.solutions << " solution(s), " << tally.candidates_explored
      << " candidate(s) explored, " << tally.commits
      << " slot(s) committed\n";
  resp.text = out.str();
  resp.ok = true;
}

void do_query(DesignSession& s, const Request& r, Response& resp) {
  std::istringstream in(r.text);
  std::string what;
  in >> what;
  std::ostringstream out;
  if (what.empty() || what == "cells") {
    for (const auto& c : s.library().cells()) out << c->name() << '\n';
    out << s.library().cells().size() << " cell(s)\n";
  } else if (what == "vars") {
    std::string cell;
    in >> cell;
    const auto print = [&out](core::Variable& v) {
      out << env::ConstraintInspector::describe(v) << '\n';
    };
    if (cell.empty()) {
      s.for_each_variable(print);
    } else {
      env::CellClass* c = require_cell(s, cell, resp);
      if (c == nullptr) return;
      DesignSession::for_each_class_variable(*c, print);
    }
  } else if (what == "stats") {
    core::PropagationContext& ctx = s.library().context();
    out << env::DesignReport::propagation_stats(ctx);
    if (ctx.metrics().enabled()) {
      // The journal's counters reach the registry when it detaches; until
      // then they are read live.
      core::MetricsRegistry m;
      m.merge(ctx.metrics());
      if (const persist::Journal* j = s.journal()) j->add_metrics_to(m);
      out << "metrics: " << m.to_json() << '\n';
    }
    out << "requests served: " << s.requests_served() << '\n';
    if (const DesignSession::SelectionTally& t = s.selection_tally();
        t.requests > 0) {
      out << "selection: " << t.requests << " request(s) " << t.solutions
          << " solution(s) " << t.candidates_explored << " candidate(s) "
          << t.subtrees_pruned << " pruned " << t.commits
          << " slot(s) committed\n";
    }
    if (const persist::Journal* j = s.journal()) {
      out << "journal: base " << s.journal_base() << " fsync "
          << persist::to_string(j->options().fsync) << " records "
          << j->records_written() << " bytes " << j->bytes_written()
          << " fsyncs " << j->fsyncs();
      if (j->sealed_segments() > 0) {
        out << " segments " << j->sealed_segments();
      }
      out << (j->dead() ? " DEAD" : "") << '\n';
    }
  } else {
    core::Variable* v = s.find_variable(what);
    if (v == nullptr) {
      resp.error = "unknown query target '" + what +
                   "' (try: cells, vars [cell], stats, <variable path>)";
      return;
    }
    out << env::ConstraintInspector::describe(*v) << '\n';
  }
  resp.text = out.str();
  resp.ok = true;
}

void do_report(DesignSession& s, const Request& r, Response& resp) {
  env::DesignReport::Options opts;
  opts.include_propagation_stats = true;
  std::istringstream in(r.text);
  std::string cell;
  if (in >> cell) {
    env::CellClass* c = require_cell(s, cell, resp);
    if (c == nullptr) return;
    resp.text = env::DesignReport::cell(*c, opts);
  } else {
    resp.text = env::DesignReport::library(s.library(), opts);
  }
  resp.ok = true;
}

// ---------------------------------------------------------------------------
// Durability (docs/PERSISTENCE.md)

/// Which shard a durable request runs on, and how its base paths resolve
/// into that shard's journal namespace (identity without a journal root).
struct ShardIo {
  const ShardedSessionManager* mgr = nullptr;
  std::size_t shard = 0;
  std::string resolve(const std::string& base) const {
    return mgr->resolve_base(shard, base);
  }
};

/// Render into `*line` one batch-assign re-asserting every #USER real value
/// of the session (nothing when there are none).  The library text persists
/// class-level characteristics only, so without it a checkpoint would forget
/// the values designers set on instances, and reload designer-set class
/// delays as #APPLICATION.
bool user_values_line(DesignSession& s, std::string* line,
                      std::string* error) {
  Request r{RequestType::kBatchAssign, s.name(), {}, {}};
  s.for_each_variable([&r](core::Variable& v) {
    if (v.last_set_by().is_user() && v.value().is_real()) {
      r.assignments.push_back({v.path(), v.value().as_number()});
    }
  });
  return r.assignments.empty() || ServiceFrontEnd::render(r, line, error);
}

/// Snapshot the library into "<base>.ckpt" (atomic rename), stamped with the
/// last journal sequence the snapshot contains, then empty the journal.  A
/// crash between the rename and the truncate is harmless: replay skips
/// records with seq <= the checkpoint's.  The header's options are the open
/// options plus "fsync <journal options>", so recovery reopens the session
/// AND its journal exactly as configured.
bool checkpoint_session(DesignSession& s, std::uint64_t* seq,
                        std::string* error) {
  persist::Journal* j = s.journal();
  persist::CheckpointMeta meta;
  meta.seq = j->next_seq() - 1;
  meta.session = s.name();
  meta.options = s.open_options();
  if (!meta.options.empty()) meta.options += ' ';
  meta.options += "fsync " + persist::to_string(j->options());
  if (!user_values_line(s, &meta.user_values, error)) return false;
  const std::string text = env::LibraryWriter::to_string(s.library());
  if (!persist::write_checkpoint(persist::checkpoint_path(s.journal_base()),
                                 meta, text, error)) {
    return false;
  }
  if (!j->truncate_all(meta.seq)) {
    *error = "journal truncate failed after checkpoint";
    return false;
  }
  *seq = meta.seq;
  return true;
}

void do_journal(DesignSession& s, const Request& r, Response& resp,
                const ShardIo& io) {
  if (s.journal() != nullptr) {
    resp.error = "session '" + s.name() + "' is already journaling to '" +
                 s.journal_base() + "'";
    return;
  }
  std::istringstream in(r.text);
  std::string base;
  if (!(in >> base)) {
    resp.error = "journal needs a base path";
    return;
  }
  base = io.resolve(base);
  std::string knobs;
  std::getline(in, knobs);
  persist::Journal::Options opts;
  if (!persist::journal_options_from(knobs, &opts, &resp.error)) return;
  // The attach marker: the session's own open request.
  persist::JournalRecord open_marker;
  if (!ServiceFrontEnd::render(
          Request{RequestType::kOpen, s.name(), s.open_options(), {}},
          &open_marker.line, &resp.error)) {
    resp.error = "session cannot be journaled: " + resp.error;
    return;
  }
  opts.truncate = true;
  opts.next_seq = 1;
  std::string error;
  auto j = persist::Journal::open(persist::journal_path(base), opts, &error);
  if (j == nullptr) {
    resp.error = error;
    return;
  }
  s.attach_journal(std::move(j), base);
  // Checkpoint immediately: from this instant, checkpoint + journal together
  // always describe the session's full state.
  std::uint64_t seq = 0;
  if (!checkpoint_session(s, &seq, &error)) {
    s.detach_journal();
    resp.error = error;
    return;
  }
  s.journal()->append(open_marker);
  resp.ok = true;
  resp.text = "journaling " + s.name() + " to " + base + " (fsync " +
              persist::to_string(opts.fsync) + ")";
}

void do_checkpoint(DesignSession& s, Response& resp) {
  if (s.journal() == nullptr) {
    resp.error = "session '" + s.name() +
                 "' has no journal (use: journal <sess> <base>)";
    return;
  }
  if (s.journal()->dead()) {
    resp.error = "journal is dead (write failure); cannot checkpoint";
    return;
  }
  std::string error;
  std::uint64_t seq = 0;
  if (!checkpoint_session(s, &seq, &error)) {
    resp.error = error;
    return;
  }
  resp.ok = true;
  resp.text = "checkpoint of " + s.name() + " at seq " + std::to_string(seq);
}

/// Requests whose effect the journal records: the session's mutations.
/// `select-stats` runs the same search as `select`, so it is one too (see
/// do_select).
bool journaled(RequestType t) {
  return t == RequestType::kLoad || t == RequestType::kAssign ||
         t == RequestType::kBatchAssign || t == RequestType::kEdit ||
         t == RequestType::kSelect || t == RequestType::kSelectStats;
}

/// The per-session dispatch (session mutex held).  Live traffic reaches it
/// through DesignService::execute, and recovery replays every journal
/// record through it, so a journal is replayed exactly as it was served.
void dispatch(DesignSession& s, const Request& r, Response& resp,
              const ShardIo& io) {
  switch (r.type) {
    case RequestType::kLoad: do_load(s, r, resp); break;
    case RequestType::kSave: do_save(s, resp); break;
    case RequestType::kAssign: do_assign(s, r, resp, false); break;
    case RequestType::kBatchAssign: do_assign(s, r, resp, true); break;
    case RequestType::kEdit: do_edit(s, r, resp); break;
    case RequestType::kQuery: do_query(s, r, resp); break;
    case RequestType::kReport: do_report(s, r, resp); break;
    case RequestType::kJournal: do_journal(s, r, resp, io); break;
    case RequestType::kCheckpoint: do_checkpoint(s, resp); break;
    case RequestType::kSelect: do_select(s, r, resp); break;
    case RequestType::kSelectStats: do_select_stats(s, r, resp); break;
    case RequestType::kOpen:
    case RequestType::kClose:
    case RequestType::kRecover:
      resp.error = std::string("'") + to_string(r.type) +
                   "' is not a per-session request";
      break;
  }
}

void append_durability_warning(Response& resp) {
  // The in-memory session keeps serving (a dead log is a dead disk, not a
  // dead design), but the caller must know durability is gone.
  if (!resp.text.empty() && resp.text.back() != '\n') resp.text += '\n';
  resp.text += "WARNING: journal write failed; session is no longer durable";
}

/// Append the record of one SUCCESSFUL mutating request and return its
/// ticket (an invalid one when nothing is owed): `line` is the request as
/// rendered before it ran (empty when nothing is owed).  A violating batch
/// is still journaled (it mutated stats and must re-derive its restore on
/// replay); a failed request mutated nothing and is not.
persist::CommitTicket journal_mutation(DesignSession& s, std::string line,
                                       const Response& resp) {
  persist::Journal* j = s.journal();
  if (j == nullptr || line.empty() || !resp.ok) return {};
  persist::JournalRecord rec;
  rec.line = std::move(line);
  rec.violation = resp.violation;
  rec.applied = resp.assignments_applied;
  rec.restored = resp.variables_restored;
  return j->append_async(rec);
}

/// The session options `open` takes ("metrics", "trace"), parsed for the
/// `open` verb and for a checkpoint header alike.
bool open_options_from(const std::string& text, bool* metrics, bool* trace,
                       std::string* error) {
  std::istringstream in(text);
  std::string opt;
  while (in >> opt) {
    if (opt == "metrics") {
      *metrics = true;
    } else if (opt == "trace") {
      *trace = true;
    } else {
      *error = "unknown open option '" + opt + "'";
      return false;
    }
  }
  return true;
}

/// Rebuild session `r.session` from "<base>.ckpt" + "<base>.journal": load
/// the checkpoint library, parse every journal record past the checkpoint
/// back into its request and run it through dispatch() under the recovered
/// session's name, verify each record's recorded outcome re-derives
/// identically, drop the torn tail, and resume journaling where the log
/// left off.  The session is built and replayed BEFORE it is published into
/// the shard registry, so concurrent requests either miss it entirely or
/// see the fully recovered state — never a half-replayed library.
Response do_recover(ShardedSessionManager& sessions, const Request& r,
                    const ShardIo& io) {
  Response resp;
  resp.session = r.session;
  std::istringstream in(r.text);
  std::string base;
  if (!(in >> base)) {
    resp.error = "recover needs a base path";
    return resp;
  }
  base = io.resolve(base);
  if (sessions.find(r.session) != nullptr) {
    resp.error = "session '" + r.session + "' already exists";
    return resp;
  }
  persist::RecoveredLog log = persist::load_recovered_log(base);
  if (!log.ok) {
    resp.error = "recover failed: " + log.error;
    return resp;
  }
  // Header options: the open options, then "fsync <journal options>", each
  // read by its own verb's parser.  A corrupt word must fail recovery
  // loudly — silently recovering with a default would change the session's
  // durability or metrics contract behind the operator's back.
  std::istringstream opts(log.meta.options);
  std::string open_text;
  std::string word;
  while (opts >> word && word != "fsync") open_text += word + ' ';
  std::string knobs;
  std::getline(opts, knobs);
  bool metrics = false;
  bool trace = false;
  persist::Journal::Options jopts;
  std::string error;
  if (!open_options_from(open_text, &metrics, &trace, &error) ||
      !persist::journal_options_from(knobs, &jopts, &error)) {
    resp.error = "recover failed: checkpoint header has " + error;
    return resp;
  }
  // Unpublished: only this worker can reach the session until insert().
  const auto s = std::make_shared<DesignSession>(r.session, metrics, trace);
  const std::uint64_t t0 = core::Tracer::now_ns();
  // Parse one logged line back into its request, renamed to the session
  // being recovered; only mutations and the open/close markers are logged.
  const auto parse_record = [&](const std::string& line, Request* rr) {
    if (!ServiceFrontEnd::parse_logged(line, rr, &error)) return false;
    rr->session = r.session;
    if (journaled(rr->type) || rr->type == RequestType::kOpen ||
        rr->type == RequestType::kClose) {
      return true;
    }
    error = std::string("'") + to_string(rr->type) + "' is not a mutation";
    return false;
  };
  std::uint64_t mismatches = 0;
  std::uint64_t replayed = 0;
  try {
    if (log.has_checkpoint && !log.checkpoint_text.empty()) {
      env::LibraryReader::read_string(s->library(), log.checkpoint_text);
    }
    if (!log.meta.user_values.empty()) {
      Request user;
      Response uresp;
      if (parse_record(log.meta.user_values, &user)) {
        dispatch(*s, user, uresp, io);
      }
      if (!uresp.ok || uresp.violation) {
        resp.error = "recover failed: checkpoint #USER values do not "
                     "re-apply: " + error + uresp.error +
                     uresp.violation_message;
        return resp;
      }
    }
    for (const persist::JournalRecord& rec : log.replay) {
      Request rr;
      if (!parse_record(rec.line, &rr)) {
        resp.error = "recover failed: journal record " +
                     std::to_string(rec.seq) + ": " + error;
        return resp;
      }
      if (rr.type == RequestType::kOpen || rr.type == RequestType::kClose) {
        continue;  // attach / shutdown markers
      }
      Response rresp;
      dispatch(*s, rr, rresp, io);
      ++replayed;
      // The engine is deterministic: the replayed outcome must re-derive
      // the recorded one.  A mismatch means the log and the code disagree.
      if (!rresp.ok || rresp.violation != rec.violation ||
          rresp.assignments_applied != rec.applied ||
          rresp.variables_restored != rec.restored) {
        ++mismatches;
      }
    }
  } catch (const std::exception& e) {
    resp.error = std::string("recover replay failed: ") + e.what();
    return resp;
  }
  core::PropagationContext& ctx = s->library().context();
  if (ctx.metrics().enabled()) {
    ctx.metrics().histogram("recover.replay_ns")
        .record(core::Tracer::now_ns() - t0);
  }
  // Cut the torn bytes off before appending, so new records never follow
  // garbage, then continue the log where it left off.
  if (log.scan.torn_tail) {
    persist::truncate_journal(persist::journal_path(base),
                              log.scan.valid_bytes);
  }
  jopts.truncate = false;
  jopts.next_seq = (log.scan.records.empty() ? log.meta.seq
                                             : log.scan.records.back().seq) +
                   1;
  auto j = persist::Journal::open(persist::journal_path(base), jopts, &error);
  std::ostringstream out;
  out << "recovered " << r.session << " from " << base << ": checkpoint seq "
      << (log.has_checkpoint ? log.meta.seq : 0) << ", replayed " << replayed
      << " record(s), " << mismatches << " outcome mismatch(es)";
  if (log.scan.torn_tail) out << ", torn tail dropped";
  if (j == nullptr) {
    // State is rebuilt; only re-attachment failed.  Keep the session, say so.
    out << "; journal re-attach failed: " << error;
  } else {
    s->attach_journal(std::move(j), base);
  }
  // Publish only now: the registry never exposes a half-recovered session.
  // A concurrent open of the same name during replay wins the race and this
  // recover reports the conflict instead of clobbering it.
  if (!sessions.insert(s)) {
    resp.error = "session '" + r.session + "' already exists";
    return resp;
  }
  resp.ok = true;
  resp.text = out.str();
  return resp;
}

/// While the session traces, its request phases land in the same ring as
/// the engine's own events, each at the span's own stamps, so a
/// Chrome-trace export shows queue/lock/propagate/journal slices around
/// the propagation waves they contain.  Caller holds the session lock.
void trace_request_phases(DesignSession& s, const RequestSpan* span) {
  core::Tracer& tracer = s.library().context().tracer();
  if (span == nullptr || !tracer.enabled()) return;
  static const Phase kEmit[] = {Phase::kQueue, Phase::kLock,
                                Phase::kPropagate, Phase::kJournal,
                                Phase::kFsync, Phase::kFlushWait};
  char label[48];
  for (const Phase p : kEmit) {
    const std::uint64_t dur = span->phase_ns(p);
    if (dur == 0) continue;
    std::snprintf(label, sizeof label, "req#%llu %s",
                  static_cast<unsigned long long>(span->request_id),
                  to_string(p));
    tracer.emit(core::TraceEventType::kRequestPhase, label, nullptr, dur,
                static_cast<std::uint8_t>(p), span->phase_start(p) + dur);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedSessionManager

std::uint64_t ShardedSessionManager::hash_of(std::string_view session) {
  // FNV-1a 64: deterministic across runs and platforms, so tests and
  // benches can pre-compute which shard a session name lands on.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : session) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

ShardedSessionManager::ShardedSessionManager(std::size_t shards,
                                             std::size_t workers_per_shard,
                                             std::string journal_root,
                                             JobHandler handler)
    : workers_per_shard_(workers_per_shard == 0 ? 1 : workers_per_shard),
      journal_root_(std::move(journal_root)),
      handler_(std::move(handler)) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Carve the per-shard durable namespaces up front, off the request path.
  if (!journal_root_.empty()) {
    for (std::size_t i = 0; i < shards; ++i) {
      std::string error;
      persist::ensure_directories(
          journal_root_ + "/shard-" + std::to_string(i), &error);
    }
  }
  for (std::size_t i = 0; i < shards; ++i) {
    Shard& sh = *shards_[i];
    sh.workers.reserve(workers_per_shard_);
    for (std::size_t w = 0; w < workers_per_shard_; ++w) {
      sh.workers.emplace_back([this, i, w] { worker_loop(i, w); });
    }
  }
}

ShardedSessionManager::~ShardedSessionManager() {
  for (auto& sh : shards_) {
    {
      const std::lock_guard<std::mutex> lock(sh->mu);
      sh->stopping = true;
    }
    sh->cv.notify_all();
  }
  for (auto& sh : shards_) {
    for (std::thread& t : sh->workers) t.join();
  }
}

std::string ShardedSessionManager::resolve_base(std::size_t shard,
                                                const std::string& base) const {
  if (journal_root_.empty()) return base;
  return journal_root_ + "/shard-" + std::to_string(shard) + "/" + base;
}

std::shared_ptr<DesignSession> ShardedSessionManager::open(
    const std::string& name, bool collect_metrics, bool collect_trace) {
  Shard& sh = shard_for(name);
  const std::lock_guard<std::mutex> lock(sh.registry_mu);
  if (sh.sessions.count(name) != 0) return nullptr;
  auto s = std::make_shared<DesignSession>(name, collect_metrics,
                                           collect_trace);
  sh.sessions.emplace(name, s);
  return s;
}

bool ShardedSessionManager::insert(std::shared_ptr<DesignSession> s) {
  Shard& sh = shard_for(s->name());
  const std::lock_guard<std::mutex> lock(sh.registry_mu);
  // try_emplace leaves a refused `s` untouched: it dies after the unlock.
  return sh.sessions.try_emplace(s->name(), std::move(s)).second;
}

std::shared_ptr<DesignSession> ShardedSessionManager::find(
    const std::string& name) const {
  const Shard& sh = shard_for(name);
  const std::lock_guard<std::mutex> lock(sh.registry_mu);
  const auto it = sh.sessions.find(name);
  return it == sh.sessions.end() ? nullptr : it->second;
}

bool ShardedSessionManager::close(const std::string& name) {
  Shard& sh = shard_for(name);
  std::shared_ptr<DesignSession> victim;
  {
    const std::lock_guard<std::mutex> lock(sh.registry_mu);
    const auto it = sh.sessions.find(name);
    if (it == sh.sessions.end()) return false;
    victim = std::move(it->second);
    sh.sessions.erase(it);
  }
  // `victim` dies here unless a request is still in flight; either way the
  // session destructor (→ context destructor) folds its stats into the
  // process-global metrics off the registry mutex.
  return true;
}

std::vector<std::string> ShardedSessionManager::names() const {
  // Lazy fold: one shard registry mutex at a time, never a global lock.
  // The result is a consistent snapshot per shard, merged and sorted.
  std::vector<std::string> out;
  for (const auto& sh : shards_) {
    const std::lock_guard<std::mutex> lock(sh->registry_mu);
    for (const auto& entry : sh->sessions) out.push_back(entry.first);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ShardedSessionManager::size() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    const std::lock_guard<std::mutex> lock(sh->registry_mu);
    n += sh->sessions.size();
  }
  return n;
}

bool ShardedSessionManager::enqueue(Job&& job) {
  Shard& sh = shard_for(job.request.session);
  {
    const std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.stopping) return false;  // job untouched; caller resolves it
    sh.queue.push_back(std::move(job));
  }
  sh.cv.notify_one();
  return true;
}

void ShardedSessionManager::worker_loop(std::size_t shard, std::size_t worker) {
  Shard& sh = *shards_[shard];
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(sh.mu);
      sh.cv.wait(lock, [&] { return sh.stopping || !sh.queue.empty(); });
      if (sh.queue.empty()) return;  // stopping, queue drained
      job = std::move(sh.queue.front());
      sh.queue.pop_front();
    }
    sh.dequeued.fetch_add(1, std::memory_order_relaxed);
    handler_(shard, worker, job);
  }
}

// ---------------------------------------------------------------------------
// DesignService

DesignService::DesignService(Config cfg)
    : cfg_([&cfg] {
        if (cfg.workers_per_shard == 0) cfg.workers_per_shard = 1;
        if (cfg.shards == 0) cfg.shards = 1;
        return cfg;
      }()),
      telemetry_(cfg_.shards * cfg_.workers_per_shard,
                 cfg_.workers_per_shard),
      sessions_(std::make_unique<ShardedSessionManager>(
          cfg_.shards, cfg_.workers_per_shard, cfg_.journal_root,
          [this](std::size_t shard, std::size_t worker,
                 ShardedSessionManager::Job& job) {
            run_job(shard, worker, job);
          })) {}

void DesignService::set_request_tap(RequestTap tap) {
  std::lock_guard<std::mutex> lock(tap_mu_);
  tap_ = std::move(tap);
  tap_armed_.store(static_cast<bool>(tap_), std::memory_order_release);
}

std::future<Response> DesignService::submit(Request r) {
  // Tap BEFORE enqueueing: with a single submitting thread (the replay
  // driver, a protocol front end) the recorder observes requests in exactly
  // the order the shard queues will.  Concurrent submitters race the
  // tap-to-enqueue window just as they race each other's enqueues, so the
  // trace is then ONE valid serialization of traffic whose interleaving was
  // never deterministic to begin with.
  if (tap_armed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(tap_mu_);
    if (tap_) tap_(r);
  }
  ShardedSessionManager::Job job;
  job.request = std::move(r);
  job.span.request_id = telemetry_.next_request_id();
  job.span.type = static_cast<std::uint8_t>(job.request.type);
  job.span.set_session(job.request.session);
  job.span.shard =
      static_cast<std::uint8_t>(sessions_->shard_of(job.request.session));
  job.span.t_enqueue = core::Tracer::now_ns();
  std::future<Response> fut = job.done.get_future();
  // enqueue takes an rvalue reference but only moves on success, so a
  // rejected job is still ours to resolve.
  if (!sessions_->enqueue(std::move(job))) {
    Response resp;
    resp.error = "service is shutting down";
    job.done.set_value(std::move(resp));
  }
  return fut;
}

Response DesignService::call(Request r) { return submit(std::move(r)).get(); }

void DesignService::run_job(std::size_t shard, std::size_t worker,
                            ShardedSessionManager::Job& job) {
  const std::size_t lane = shard * cfg_.workers_per_shard + worker;
  job.span.lane = static_cast<std::uint8_t>(lane);
  job.span.t_dequeue = core::Tracer::now_ns();
  Response resp;
  try {
    resp = execute(job.request, &job.span, shard);
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
    resp.session = job.request.session;
  } catch (...) {
    resp.ok = false;
    resp.error = "unknown execution error";
    resp.session = job.request.session;
  }
  job.span.ok = resp.ok;
  job.span.violation = resp.violation;
  job.span.t_reply = core::Tracer::now_ns();
  // Record BEFORE resolving the future: a caller that waited on the
  // response is guaranteed to find its own span in the telemetry.
  telemetry_.record(lane, job.span);
  served_.fetch_add(1, std::memory_order_relaxed);
  job.done.set_value(std::move(resp));
}

Response DesignService::execute(const Request& r, RequestSpan* span,
                                std::size_t shard) {
  Response resp;
  resp.session = r.session;
  if (r.session.empty()) {
    resp.error = "request needs a session name";
    return resp;
  }

  // Session-lifecycle requests take no per-session lock up front; their
  // whole body is the work phase (lock wait shows up as ~0).  They touch
  // only the owning shard's registry.
  if (r.type == RequestType::kOpen || r.type == RequestType::kRecover ||
      r.type == RequestType::kClose) {
    if (span != nullptr) span->t_lock = core::Tracer::now_ns();
    resp = execute_lifecycle(r, shard);
    if (span != nullptr) span->t_work_done = core::Tracer::now_ns();
    return resp;
  }

  const std::shared_ptr<DesignSession> s = sessions_->find(r.session);
  if (s == nullptr) {
    resp.error = "unknown session '" + r.session + "'";
    return resp;
  }
  std::unique_lock<std::mutex> lock(s->mutex());
  if (span != nullptr) span->t_lock = core::Tracer::now_ns();
  s->count_request();
  // A journaled request is rendered before it runs: one the log could not
  // carry fails here and mutates nothing.
  std::string logged;
  if (s->journal() != nullptr && journaled(r.type) &&
      !ServiceFrontEnd::render(r, &logged, &resp.error)) {
    resp.error = "request cannot be journaled: " + resp.error;
    return resp;
  }
  dispatch(*s, r, resp, ShardIo{sessions_.get(), shard});
  if (span != nullptr) span->t_work_done = core::Tracer::now_ns();
  persist::CommitTicket ticket = journal_mutation(*s, std::move(logged), resp);
  // A ticket still pending (group commit) is waited on off the session
  // lock, so other requests on this session batch into the same flush; an
  // inline commit's ticket is already complete and is settled under the
  // lock.  The request's phases reach the session's trace ring while the
  // lock still guards it.
  if (ticket.pending()) {
    trace_request_phases(*s, span);
    lock.unlock();
  }
  if (ticket.valid()) {
    const bool durable = ticket.wait();
    if (span != nullptr) {
      span->t_journal_done = core::Tracer::now_ns();
      span->fsync_ns = ticket.fsync_ns();
      span->flush_wait_ns = ticket.wait_ns();
      // Exactly one ticket per journal death carries the fault marker.
      span->journal_fault = ticket.faulted();
    }
    if (!durable) append_durability_warning(resp);
  }
  if (lock.owns_lock()) trace_request_phases(*s, span);
  return resp;
}

Response DesignService::execute_lifecycle(const Request& r,
                                          std::size_t shard) {
  Response resp;
  resp.session = r.session;

  if (r.type == RequestType::kOpen) {
    bool metrics = false;
    bool trace = false;
    if (!open_options_from(r.text, &metrics, &trace, &resp.error)) {
      return resp;
    }
    if (sessions_->open(r.session, metrics, trace) == nullptr) {
      resp.error = "session '" + r.session + "' already exists";
      return resp;
    }
    resp.ok = true;
    resp.text = "opened " + r.session;
    return resp;
  }

  if (r.type == RequestType::kRecover) {
    return do_recover(*sessions_, r, ShardIo{sessions_.get(), shard});
  }

  if (r.type == RequestType::kClose) {
    const std::shared_ptr<DesignSession> victim = sessions_->find(r.session);
    if (victim == nullptr) {
      resp.error = "unknown session '" + r.session + "'";
      return resp;
    }
    {
      // A journaled session marks its clean shutdown, then flushes and
      // closes the log before the registry lets the session die.
      const std::lock_guard<std::mutex> lock(victim->mutex());
      if (victim->journal() != nullptr) {
        persist::JournalRecord rec;
        ServiceFrontEnd::render(r, &rec.line);
        victim->journal()->append(rec);
        victim->detach_journal();
      }
    }
    if (!sessions_->close(r.session)) {
      resp.error = "unknown session '" + r.session + "'";
      return resp;
    }
    resp.ok = true;
    resp.text = "closed " + r.session;
    return resp;
  }

  resp.error = "not a lifecycle request";  // unreachable (execute dispatches)
  return resp;
}

}  // namespace stemcp::service
