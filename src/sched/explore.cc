#include "sched/explore.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "sched/checkpoint.h"
#include "sched/explore_parallel.h"
#include "sched/graph.h"

namespace cac::sched {

namespace {

enum class Color : std::uint8_t { OnStack, Done };

}  // namespace

ExploreResult explore(const ptx::Program& prg, const sem::KernelConfig& kc,
                      const sem::Machine& initial,
                      const ExploreOptions& opts, const Checkpoint* resume) {
  if (opts.num_threads > 0) {
    return explore_parallel(prg, kc, initial, opts, resume);
  }

  ExploreResult result;
  result.min_steps_to_termination = ~0ull;

  // Node ownership: every visited state is interned into the store and
  // referenced by StateId from here on; only the states currently on
  // the DFS stack are held as full machines (their children are built
  // by copying, which the copy-on-write memory makes cheap).
  // Interning compares structurally, so a revisit is detected even
  // across different paths and a hash collision cannot fake a visit.
  auto store = std::make_shared<StateStore>(store_options(opts));
  std::unordered_map<std::uint32_t, Color> colors;
  std::vector<StateId> finals;  // DFS first-visit order

  struct Frame {
    StateId id;
    sem::Machine state;
    std::vector<sem::Choice> eligible;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  std::vector<sem::Choice> path;

  bool limits_hit = false;

  auto hit_limit = [&](ExploreResult::Limit l) {
    limits_hit = true;
    if (result.limit_hit == ExploreResult::Limit::None) result.limit_hit = l;
  };

  auto add_violation = [&](Violation::Kind kind, std::string msg) {
    result.violations.push_back({kind, std::move(msg), path});
  };

  auto enter = [&](sem::Machine&& m) -> bool {
    // Returns true if a new frame was pushed.  The parent (the frame
    // being expanded) seeds delta encoding: a child's warp fragments
    // are stored as deltas against the parent's where that pays.
    const StateId parent = stack.empty() ? StateId{} : stack.back().id;
    const auto r = store->intern(m, opts.max_states, parent);
    if (!r.id.valid()) {
      hit_limit(ExploreResult::Limit::MaxStates);
      return false;
    }
    if (!r.inserted) {
      const auto it = colors.find(r.id.v);
      if (it != colors.end() && it->second == Color::OnStack) {
        add_violation(Violation::Kind::Cycle,
                      "schedule revisits an earlier state: a scheduler can "
                      "loop forever");
      }
      return false;
    }
    ++result.states_visited;

    if (sem::terminated(prg, m.grid)) {
      colors.emplace(r.id.v, Color::Done);
      result.min_steps_to_termination =
          std::min<std::uint64_t>(result.min_steps_to_termination,
                                  path.size());
      result.max_steps_to_termination =
          std::max<std::uint64_t>(result.max_steps_to_termination,
                                  path.size());
      finals.push_back(r.id);  // a fresh intern: never a duplicate
      return false;
    }
    auto eligible = graph::branch_choices(prg, m.grid, opts);
    if (eligible.empty()) {
      colors.emplace(r.id.v, Color::Done);
      add_violation(Violation::Kind::Stuck,
                    sem::stuck_reason(prg, m.grid));
      return false;
    }
    if (path.size() >= opts.max_depth) {
      colors.emplace(r.id.v, Color::Done);
      hit_limit(ExploreResult::Limit::MaxDepth);
      add_violation(Violation::Kind::DepthExceeded,
                    "path exceeded the exploration depth bound");
      return false;
    }
    colors.emplace(r.id.v, Color::OnStack);
    stack.push_back(Frame{r.id, std::move(m), std::move(eligible), 0});
    return true;
  };

  if (resume != nullptr) {
    // Continue the checkpointed run: the store comes back with every
    // id intact, frames rematerialize their machines from it, and the
    // eligible-choice lists are recomputed (they are a deterministic
    // function of the state, so frame.next indexes the same choice it
    // did before the cut).
    verify_resume(*resume, Checkpoint::Engine::Serial, prg, kc, opts);
    store = resume->store;
    // Tier knobs are transient: the resumed run's own budget/spill
    // settings apply, whatever the checkpointing run used.
    store->configure(store_options(opts));
    result.states_visited = resume->states_visited;
    result.transitions = resume->transitions;
    result.min_steps_to_termination = resume->min_steps;
    result.max_steps_to_termination = resume->max_steps;
    result.limit_hit = resume->limit_hit;
    limits_hit = resume->limits_hit;
    result.violations = resume->violations;
    finals = resume->final_ids;
    colors.reserve(resume->colors.size());
    for (const auto& [id, color] : resume->colors) {
      colors.emplace(id, color == 0 ? Color::OnStack : Color::Done);
    }
    path = resume->path;
    stack.reserve(resume->stack.size());
    for (const Checkpoint::SerialFrame& f : resume->stack) {
      sem::Machine m = store->materialize(f.id);
      auto eligible = graph::branch_choices(prg, m.grid, opts);
      if (f.next > eligible.size()) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "stack frame choice index out of range");
      }
      stack.push_back(Frame{f.id, std::move(m), std::move(eligible),
                            static_cast<std::size_t>(f.next)});
    }
  } else {
    enter(sem::Machine(initial));
  }

  auto should_stop = [&] {
    return opts.stop_at_first_violation && !result.violations.empty();
  };

  // --- crash-safety & budget machinery -------------------------------
  // The top of the DFS loop is a clean cut point: every structure
  // (stack, path, colors, finals, counters) is mutually consistent, so
  // that is where budgets are enforced and checkpoints written.
  const Budget budget(opts);
  const bool budgeted = budget.armed();
  std::uint64_t next_checkpoint_at =
      (!opts.checkpoint_path.empty() && opts.checkpoint_every_states != 0)
          ? result.states_visited + opts.checkpoint_every_states
          : ~0ull;
  std::uint64_t next_progress_at =
      (opts.progress_fn && opts.progress_every_states != 0)
          ? result.states_visited + opts.progress_every_states
          : ~0ull;
  std::uint64_t iter = 0;

  auto write_checkpoint = [&] {
    Checkpoint ck;
    ck.engine = Checkpoint::Engine::Serial;
    ck.program_fp = program_fingerprint(prg);
    ck.config_fp = config_fingerprint(kc);
    ck.options = opts;  // only structural fields are persisted
    ck.store = store;
    ck.states_visited = result.states_visited;
    ck.transitions = result.transitions;
    ck.min_steps = result.min_steps_to_termination;
    ck.max_steps = result.max_steps_to_termination;
    ck.limit_hit = result.limit_hit;
    ck.limits_hit = limits_hit;
    ck.final_ids = finals;
    ck.violations = result.violations;
    ck.colors.reserve(colors.size());
    for (const auto& [id, color] : colors) {
      ck.colors.emplace_back(
          id, static_cast<std::uint8_t>(color == Color::OnStack ? 0 : 1));
    }
    ck.stack.reserve(stack.size());
    for (const Frame& f : stack) {
      ck.stack.push_back({f.id, static_cast<std::uint64_t>(f.next)});
    }
    ck.path = path;
    try {
      ck.save(opts.checkpoint_path);
      result.checkpointed = true;
    } catch (const CheckpointError& e) {
      // A full or failing disk must not kill the exploration: log it,
      // keep going, and let the next cadence retry.  Only resumability
      // is at stake, never the verdict.
      ++result.checkpoint_write_failures;
      std::fprintf(stderr,
                   "cacval: warning: checkpoint write failed (will retry "
                   "next cadence): %s\n",
                   e.what());
    }
  };

  while (!stack.empty() && !should_stop()) {
    ++iter;
    if (budgeted) {
      // The cheap flags are polled every iteration (the fault harness
      // relies on stop_after_states being exact); the clock and the
      // /proc RSS read only every 64.
      const ExploreResult::Limit stop = budget.tripped(
          result.states_visited,
          [&] { return working_set_bytes(store->stats().spilled_bytes); },
          (iter & 0x3f) == 0);
      if (stop != ExploreResult::Limit::None) {
        // Checkpoint first: the transient stop reason must not leak
        // into the file, or the resumed run could never report itself
        // exhaustive.
        if (!opts.checkpoint_path.empty()) write_checkpoint();
        hit_limit(stop);
        break;
      }
    }
    if (result.states_visited >= next_checkpoint_at) {
      write_checkpoint();
      next_checkpoint_at =
          result.states_visited + opts.checkpoint_every_states;
    }
    if (result.states_visited >= next_progress_at) {
      opts.progress_fn({result.states_visited, result.transitions,
                        static_cast<std::uint64_t>(stack.size())});
      next_progress_at =
          result.states_visited + opts.progress_every_states;
    }

    Frame& top = stack.back();
    if (top.next >= top.eligible.size()) {
      colors[top.id.v] = Color::Done;
      stack.pop_back();
      if (!path.empty()) path.pop_back();
      continue;
    }
    const sem::Choice c = top.eligible[top.next++];
    sem::Machine child(top.state);
    const sem::StepResult sr =
        sem::apply_choice(prg, kc, child, c, opts.step_opts, nullptr);
    ++result.transitions;
    path.push_back(c);
    if (!sr.ok()) {
      add_violation(Violation::Kind::Fault, sr.fault);
      path.pop_back();
      continue;
    }
    if (!enter(std::move(child))) path.pop_back();
  }

  if (result.min_steps_to_termination == ~0ull) {
    result.min_steps_to_termination = 0;
  }
  result.final_ids = std::move(finals);
  result.store_stats = store->stats();
  result.store = std::move(store);
  result.exhaustive = !limits_hit && stack.empty();
  return result;
}

std::vector<sem::Machine> ExploreResult::finals() const {
  std::vector<sem::Machine> out;
  if (!store) return out;
  out.reserve(final_ids.size());
  for (const StateId id : final_ids) out.push_back(store->materialize(id));
  return out;
}

std::string to_string(Violation::Kind k) {
  switch (k) {
    case Violation::Kind::Stuck: return "stuck";
    case Violation::Kind::Fault: return "fault";
    case Violation::Kind::Cycle: return "cycle";
    case Violation::Kind::DepthExceeded: return "depth-exceeded";
  }
  return "?";
}

std::string to_string(ExploreResult::Limit l) {
  switch (l) {
    case ExploreResult::Limit::None: return "none";
    case ExploreResult::Limit::MaxStates: return "max-states";
    case ExploreResult::Limit::MaxDepth: return "max-depth";
    case ExploreResult::Limit::Deadline: return "deadline";
    case ExploreResult::Limit::MemLimit: return "mem-limit";
    case ExploreResult::Limit::Interrupted: return "interrupted";
  }
  return "?";
}

}  // namespace cac::sched
