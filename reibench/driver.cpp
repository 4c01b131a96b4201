//===- reibench/driver.cpp - End-to-end REI benchmark driver ------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark run. Builds the workload's requests from --seed, drives
/// them through the library for --seconds, checks every answer, and
/// prints one JSON object of raw samples as its last stdout line; run.py
/// reduces the samples to the reported metrics.
///
///   reibench_driver --workload NAME --seed N --seconds S --trace 0|1
///   reibench_driver --workload NAME --seed N --setup 1
///
/// Workloads (BENCHMARK.json says why each exists):
///
///   classroom      Table-2 classroom instances under the cost function
///                  (20, 20, 20, 5, 30), one cold search per request on
///                  the "cpu-parallel" engine with 4 workers: spec text
///                  in, regex text out.
///   service-mix    one closed-loop client of an in-process SynthService
///                  on "cpu", cycling through one request of every kind
///                  the service treats differently: a repeated spec
///                  (result cache), a fresh variant (cold search), a
///                  budget probe and its retry (park, then resume), and a
///                  solve followed by an edit that adds one example back
///                  (spec-delta graft). The cycle covers the features in
///                  equal shares; it is not a model of real traffic. The
///                  service runs each request on the client's thread: a
///                  TCP front end made every figure follow the host's
///                  thread wake-up latency, which swung by up to 2x.
///
/// --setup 1 is a cold start: the process answers the workload's first
/// request (no1) on a fresh engine or service, prints "ready" and
/// exits. run.py times it from spawn to
/// that line.
///
/// The classroom examples and their minimal costs are copied into this
/// file instead of read from the library, so a seed's inputs and the
/// expected answers stay fixed whatever the program under test changes.
///
/// --trace 1 adds spans around the calls into each layer (parse, stage,
/// sweep, and per cost level through the session progress hook or a
/// service ClientSink) and reads the service counters. With
/// --trace 0 the clock is read only at request boundaries.
///
//===----------------------------------------------------------------------===//

#include "engine/BackendRegistry.h"
#include "engine/Session.h"
#include "engine/Staging.h"
#include "regex/Matcher.h"
#include "service/SynthService.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace paresy;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// SplitMix64: the benchmark's own generator, so the inputs of a seed do
/// not depend on the library's generators.
class SeedRng {
public:
  explicit SeedRng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  size_t below(size_t Bound) { return size_t(next() % Bound); }

  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

const CostFn TableCost(20, 20, 20, 5, 30);
const Alphabet &binary() {
  static const Alphabet Sigma = Alphabet::of("01");
  return Sigma;
}

/// A classroom instance with its minimal cost under TableCost.
struct Instance {
  const char *Name;
  std::vector<std::string> Pos;
  std::vector<std::string> Neg;
  uint64_t MinCost;
};

/// The classroom requests: the 22 suite instances that one sequential
/// core solves in well under a second each (no6, no9 and no14 take
/// seconds), so a run sees every one of them many times. The first
/// HotInstances are the cheapest; service-mix repeats those.
const std::vector<Instance> &classroom() {
  static const std::vector<Instance> Suite = {
      {"no1", {"0", "00", "01", "010", "0110"},
       {"1", "10", "11", "101", "1000"}, 85},
      {"no11", {"1", "10", "11", "101", "1100"},
       {"0", "00", "01", "010", "0011"}, 85},
      {"no19", {"1", "11", "111", "11111"},
       {"0", "10", "01", "110", "1011"}, 40},
      {"no24", {"0", "10", "00", "110", "0100"},
       {"1", "01", "11", "001", "1011"}, 85},
      {"no2", {"01", "001", "101", "0101", "11001"},
       {"0", "1", "10", "011", "0110", "111"}, 140},
      {"no3", {"0101", "00101", "01010", "10101", "110101", "0101011"},
       {"0", "01", "010", "0110", "1010", "00110", "010011"}, 230},
      {"no4", {"10", "100", "110", "1010", "10110"},
       {"0", "1", "01", "11", "011", "101", "0110"}, 135},
      {"no5", {"1", "11", "00", "010", "0110", "10011", "00100"},
       {"0", "01", "10", "000", "0111", "01100"}, 160},
      {"no7", {"00", "01", "1011", "111000", "10"},
       {"0", "1", "011", "01101", "1110101"}, 165},
      {"no8", {"11", "101", "110", "0101", "10001"},
       {"0", "1", "00", "010", "1000", "00100"}, 180},
      {"no10", {"1", "0", "01", "10", "101", "0101", "11011"},
       {"00", "100", "001", "0100", "11001"}, 130},
      {"no12", {"11", "011", "110", "0110", "10111"},
       {"0", "1", "10", "0101", "10010"}, 185},
      {"no13", {"1", "01", "10", "111", "01011", "00100"},
       {"0", "11", "00", "0110", "1001", "101101"}, 180},
      {"no15", {"00", "100", "000", "0100", "11000"},
       {"0", "1", "01", "10", "110", "0010"}, 140},
      {"no16", {"0", "1", "00", "11", "010", "101", "0110", "1001"},
       {"01", "10", "001", "110", "0111", "1000"}, 250},
      {"no17", {"101", "0101", "1010", "1101", "10100"},
       {"0", "1", "10", "01", "1001", "0110", "11001"}, 205},
      {"no18", {"000", "010", "101", "111", "110"},
       {"0", "11", "0000", "01", "10101"}, 220},
      {"no20", {"0", "1", "00", "010", "0001", "00100"},
       {"11", "101", "110", "01011", "1001"}, 130},
      {"no21", {"0", "00", "11", "0110", "1001", "101101"},
       {"1", "10", "01", "111", "01011", "100"}, 160},
      {"no22", {"01", "010", "0111", "110", "1010", "0100110"},
       {"0", "1", "11", "00", "100", "0011", "111"}, 260},
      {"no23", {"00", "10", "001", "100", "0010", "1011"},
       {"0", "1", "01", "11", "0111", "110"}, 185},
      {"no25", {"0", "1", "11", "011", "110", "0110", "10101"},
       {"111", "1111", "11011", "110110", "011011"}, 200},
  };
  return Suite;
}

/// Spec text in the +/- line format, both example lists in a seeded
/// order (the order never changes the answer).
std::string specText(std::vector<std::string> Pos,
                     std::vector<std::string> Neg, SeedRng &Rng) {
  Rng.shuffle(Pos);
  Rng.shuffle(Neg);
  std::string Text;
  for (const std::string &W : Pos)
    Text += "+" + W + "\n";
  for (const std::string &W : Neg)
    Text += "-" + W + "\n";
  return Text;
}

/// Checks an answer independently of the search: it parses, the
/// derivative matcher accepts every positive and rejects every negative
/// example, and its cost recomputes to the reported one. \p WantCost,
/// when non-zero, is the known minimum.
bool checkAnswer(const Spec &S, const CostFn &Cost, const std::string &Regex,
                 uint64_t ReportedCost, uint64_t WantCost,
                 std::string &Error) {
  RegexManager M;
  ParseResult P = parseRegex(M, Regex);
  if (!P) {
    Error = "unparsable answer '" + Regex + "'";
    return false;
  }
  if (!satisfiesExamples(M, P.Re, S.Pos, S.Neg)) {
    Error = "answer '" + Regex + "' misclassifies an example";
    return false;
  }
  if (Cost.of(P.Re) != ReportedCost) {
    Error = "answer '" + Regex + "' does not cost the reported " +
            std::to_string(ReportedCost);
    return false;
  }
  if (WantCost && ReportedCost != WantCost) {
    Error = "answer '" + Regex + "' costs " + std::to_string(ReportedCost) +
            ", the minimum is " + std::to_string(WantCost);
    return false;
  }
  return true;
}

/// A level of fewer candidates than this counts as small (the levels
/// where dispatch overhead rather than kernel work sets the time).
constexpr uint64_t SmallLevelCandidates = 4096;

/// One request's measurements. Only Latency is taken with --trace 0.
struct Sample {
  double Latency = 0;
  /// Ran (part of) a cost sweep; false for result-cache hits.
  bool Searched = false;
  double Parse = 0;
  double Stage = 0;
  double Sweep = 0;
  uint64_t Levels = 0;
  uint64_t Candidates = 0;
  uint64_t Unique = 0;
  double SmallLevels = 0;
  double TopLevelShare = 0;
};

/// Cumulative (seconds, candidates) marks, one per completed cost level.
struct LevelLog {
  std::vector<std::pair<double, uint64_t>> Marks;

  /// Splits the marks into levels; \p Base is the clock reading the
  /// first level starts from.
  void summarize(double Base, Sample &Out) const {
    double Prev = Base, Top = 0, Total = 0;
    uint64_t PrevCandidates = 0;
    for (const auto &[At, Candidates] : Marks) {
      double Span = std::max(0.0, At - Prev);
      Total += Span;
      Top = std::max(Top, Span);
      if (Candidates - PrevCandidates < SmallLevelCandidates)
        Out.SmallLevels += Span;
      Prev = At;
      PrevCandidates = Candidates;
    }
    Out.TopLevelShare = Total > 0 ? Top / Total : 0;
  }
};

/// Everything one run reports.
struct Report {
  std::vector<Sample> Samples;
  /// Wall seconds of the timed phase, up to its last answer.
  double Elapsed = 0;
  uint64_t Attempted = 0;
  /// Requests without a correct answer: a wrong answer, or none at all.
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  // Service counters (service-mix, --trace 1), warm-up included.
  uint64_t Requests = 0;
  uint64_t CacheHits = 0;
  uint64_t Resumed = 0;
  uint64_t Grafts = 0;

  void fail(std::string Message) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(std::move(Message));
  }
};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Setup = false;
};

/// Seconds of untimed requests before a run's timed ones. The first
/// seconds of a run on an idle host run faster than the rest, so a run
/// timed from its start reads faster after a pause.
constexpr double WarmupSeconds = 5;

/// Ends a --setup run: the first answer is in.
void printReady() {
  std::printf("ready\n");
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// classroom
//===----------------------------------------------------------------------===//

const char *const ClassroomBackend = "cpu-parallel";
constexpr unsigned ClassroomWorkers = 4;

/// Solves one request cold on a fresh backend: parse, stage, sweep.
bool solveCold(const std::string &Text, const Instance &Inst, bool Trace,
               Sample &Out, std::string &Error) {
  Clock::time_point T0 = Clock::now();
  Spec S;
  if (!parseSpecText(Text, S, &Error))
    return false;
  Clock::time_point T1 = Trace ? Clock::now() : T0;
  SynthOptions Opts;
  Opts.Cost = TableCost;
  std::shared_ptr<const engine::StagedQuery> Q =
      engine::stage(S, binary(), Opts);
  Clock::time_point T2 = Trace ? Clock::now() : T0;
  engine::BackendConfig Config;
  Config.Workers = ClassroomWorkers;
  engine::SearchSession Session(Q,
                                engine::createBackend(ClassroomBackend, Config));
  LevelLog Log;
  Clock::time_point T3 = T0;
  if (Trace) {
    Session.setProgressHook([&](const engine::SessionProgress &P) {
      Log.Marks.emplace_back(secondsBetween(T3, Clock::now()), P.Candidates);
    });
    T3 = Clock::now();
  }
  SynthResult R = Session.run();
  Clock::time_point T4 = Clock::now();

  Out.Latency = secondsBetween(T0, T4);
  Out.Searched = true;
  if (Trace) {
    Out.Parse = secondsBetween(T0, T1);
    Out.Stage = secondsBetween(T1, T2);
    Out.Sweep = secondsBetween(T3, T4);
    Out.Levels = R.Stats.LevelsRun;
    Out.Candidates = R.Stats.CandidatesGenerated;
    Out.Unique = R.Stats.UniqueLanguages;
    Log.summarize(0, Out);
  }
  if (!R.found()) {
    Error = std::string(Inst.Name) + ": " + statusName(R.Status) + " " +
            R.Message;
    return false;
  }
  if (!checkAnswer(S, TableCost, R.Regex, R.Cost, Inst.MinCost, Error)) {
    Error = std::string(Inst.Name) + ": " + Error;
    return false;
  }
  return true;
}

int runClassroom(const Args &A, Report &Rep) {
  if (!engine::hasBackend(ClassroomBackend)) {
    std::fprintf(stderr, "error: %s\n",
                 engine::unknownBackendMessage(ClassroomBackend).c_str());
    return 1;
  }
  const std::vector<Instance> &Suite = classroom();
  SeedRng Rng(A.Seed);

  if (A.Setup) {
    Sample S;
    std::string Error;
    if (!solveCold(specText(Suite[0].Pos, Suite[0].Neg, Rng), Suite[0], false,
                   S, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    printReady();
    return 0;
  }

  // Whole rounds over the suite in a seeded order until the time is up,
  // so every run weighs each instance alike. Warm-up rounds are checked
  // but not timed.
  std::vector<size_t> Order(Suite.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  auto rounds = [&](double Seconds, bool Timed) {
    Clock::time_point Start = Clock::now();
    do {
      Rng.shuffle(Order);
      for (size_t I : Order) {
        std::string Text = specText(Suite[I].Pos, Suite[I].Neg, Rng);
        Sample S;
        std::string Error;
        ++Rep.Attempted;
        if (!solveCold(Text, Suite[I], A.Trace, S, Error))
          Rep.fail(Error);
        else if (Timed)
          Rep.Samples.push_back(S);
      }
    } while (secondsBetween(Start, Clock::now()) < Seconds);
    return secondsBetween(Start, Clock::now());
  };
  rounds(WarmupSeconds, false);
  Rep.Elapsed = rounds(A.Seconds, true);
  Rep.Requests = Rep.Attempted;
  return 0;
}

//===----------------------------------------------------------------------===//
// service-mix
//===----------------------------------------------------------------------===//

/// Instances the loop repeats; warmed before timing, so each of their
/// requests is a result-cache hit.
constexpr size_t HotInstances = 4;
/// Examples a fresh variant, a probe and an edit hold out of their
/// instance. Variants of one size are never strict supersets of each
/// other, so no variant grafts onto another.
constexpr size_t HeldOut = 4;

service::ServiceOptions serviceOptions() {
  service::ServiceOptions O;
  O.Backend = "cpu";
  O.Workers = 0; // Each request runs on the calling thread.
  return O;
}

/// One request as the client sends it.
struct Request {
  std::string Text;
  SynthOptions Opts;
  /// Known minimal cost (0 = unknown).
  uint64_t WantCost = 0;
  /// A budget probe: NotFound is a correct answer.
  bool MayMiss = false;
};

/// Answers \p Req through \p Svc, recording spans into \p Out. Returns
/// false, with the reason in \p Error, unless the answer is correct.
bool ask(service::SynthService &Svc, const Request &Req, bool Trace,
         Sample &Out, std::string &Error) {
  Clock::time_point T0 = Clock::now();
  Spec Examples;
  if (!parseSpecText(Req.Text, Examples, &Error)) {
    Error = "bad request text: " + Error;
    return false;
  }
  Clock::time_point T1 = Trace ? Clock::now() : T0;
  LevelLog Log;
  SynthResult R;
  if (Trace) {
    service::SubmitContext Ctx;
    Ctx.Sink = std::make_shared<service::ClientSink>();
    Ctx.Sink->OnProgress = [&](const engine::SessionProgress &P) {
      Log.Marks.emplace_back(P.ConsumedSeconds, P.Candidates);
    };
    R = Svc.submit(Examples, binary(), Req.Opts, Ctx).get();
  } else {
    R = Svc.synthesize(Examples, binary(), Req.Opts);
  }
  Out.Latency = secondsBetween(T0, Clock::now());
  if (Trace) {
    // A cache hit runs no level; its stats are the cached search's.
    Out.Searched = !Log.Marks.empty();
    Out.Parse = secondsBetween(T0, T1);
    Out.Stage = R.Stats.PrecomputeSeconds;
    Out.Sweep = R.Stats.SearchSeconds;
    Out.Levels = R.Stats.LevelsRun;
    Out.Candidates = R.Stats.CandidatesGenerated;
    Out.Unique = R.Stats.UniqueLanguages;
    Log.summarize(R.Stats.PrecomputeSeconds, Out);
  }

  if (R.Status == SynthStatus::NotFound && Req.MayMiss)
    return true;
  if (!R.found()) {
    Error = std::string("request answered ") + statusName(R.Status) + " " +
            R.Message;
    return false;
  }
  return checkAnswer(Examples, Req.Opts.Cost, R.Regex, R.Cost, Req.WantCost,
                     Error);
}

/// Every way to hold \p K of \p Inst's examples out (indices into Pos,
/// then Neg), leaving \p Keep in.
std::vector<std::vector<size_t>> dropSets(const Instance &Inst, size_t K,
                                          size_t Keep = SIZE_MAX) {
  size_t N = Inst.Pos.size() + Inst.Neg.size();
  std::vector<std::vector<size_t>> Sets;
  for (uint32_t Mask = 0; Mask != (1u << N); ++Mask) {
    if (size_t(std::popcount(Mask)) != K ||
        (Keep != SIZE_MAX && (Mask >> Keep) & 1))
      continue;
    std::vector<size_t> Drop;
    for (size_t I = 0; I != N; ++I)
      if ((Mask >> I) & 1)
        Drop.push_back(I);
    Sets.push_back(std::move(Drop));
  }
  return Sets;
}

/// A whole instance, with its known minimal cost.
Request instanceRequest(const Instance &Inst, SeedRng &Rng) {
  Request R;
  R.Text = specText(Inst.Pos, Inst.Neg, Rng);
  R.Opts.Cost = TableCost;
  R.WantCost = Inst.MinCost;
  return R;
}

/// \p Inst with the examples at \p Drop held out.
Request variant(const Instance &Inst, const std::vector<size_t> &Drop,
                SeedRng &Rng) {
  std::vector<std::string> Pos, Neg;
  auto kept = [&](size_t I) {
    return std::find(Drop.begin(), Drop.end(), I) == Drop.end();
  };
  for (size_t I = 0; I != Inst.Pos.size(); ++I)
    if (kept(I))
      Pos.push_back(Inst.Pos[I]);
  for (size_t I = 0; I != Inst.Neg.size(); ++I)
    if (kept(Inst.Pos.size() + I))
      Neg.push_back(Inst.Neg[I]);
  Request R;
  R.Text = specText(std::move(Pos), std::move(Neg), Rng);
  R.Opts.Cost = TableCost;
  return R;
}

/// The variants of one request kind: every held-out set of each of its
/// instances, in a seeded order, drawn from the instances in turn. Some
/// instances take far longer than others, so drawing them in turn keeps
/// the seed from setting a run's share of slow requests. A run that gets
/// through all of them starts over; a repeat is a cache hit only while
/// the service's caches still hold it (cache_hit_ratio shows it).
struct VariantPool {
  struct Entry {
    size_t Inst;
    std::vector<size_t> Drop;
    /// The example an edit adds back (SIZE_MAX for other kinds).
    size_t EditExample;
  };
  std::vector<std::vector<Entry>> PerInstance;
  size_t Next = 0;

  const Entry &next() {
    const std::vector<Entry> &Own = PerInstance[Next % PerInstance.size()];
    const Entry &E = Own[Next / PerInstance.size() % Own.size()];
    ++Next;
    return E;
  }
};

int runMix(const Args &A, Report &Rep) {
  const std::vector<Instance> &Suite = classroom();
  SeedRng Rng(A.Seed);
  service::SynthService Svc(serviceOptions());
  std::string Error;

  if (A.Setup) {
    Sample S;
    if (!ask(Svc, instanceRequest(Suite[0], Rng), false, S, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    printReady();
    return 0;
  }

  // Fill the result cache with the hot specs before timing.
  for (size_t I = 0; I != HotInstances; ++I) {
    Sample S;
    if (!ask(Svc, instanceRequest(Suite[I], Rng), false, S, Error)) {
      std::fprintf(stderr, "error: warm-up of %s: %s\n", Suite[I].Name,
                   Error.c_str());
      return 1;
    }
  }

  // The other instances are split among the request kinds, so a variant
  // of one kind extends no variant of another kind.
  enum Kind { Fresh, Probe, Edit, Kinds };
  VariantPool Pools[Kinds];
  for (size_t I = HotInstances; I != Suite.size(); ++I) {
    Kind K = Kind((I - HotInstances) % Kinds);
    // An edit adds one seeded example back to a solve that held out
    // HeldOut + 1, so each solve has exactly one edit.
    size_t Back = K == Edit
                      ? Rng.below(Suite[I].Pos.size() + Suite[I].Neg.size())
                      : SIZE_MAX;
    std::vector<VariantPool::Entry> &Own = Pools[K].PerInstance.emplace_back();
    for (std::vector<size_t> &Drop : dropSets(Suite[I], HeldOut, Back))
      Own.push_back({I, std::move(Drop), Back});
    Rng.shuffle(Own);
  }

  service::ServiceStats Before = Svc.stats();
  bool Timed = false;
  auto send = [&](const Request &R) {
    Sample S;
    ++Rep.Attempted;
    if (!ask(Svc, R, A.Trace, S, Error))
      Rep.fail(Error);
    else if (Timed)
      Rep.Samples.push_back(S);
  };
  // Whole cycles until the time is up; warm-up cycles are checked but
  // not timed.
  auto cycles = [&](double Seconds) {
    Clock::time_point Start = Clock::now();
    do {
      // A repeated spec: served from the result cache.
      send(instanceRequest(Suite[Rng.below(HotInstances)], Rng));

      // A fresh variant: a cold search.
      const VariantPool::Entry &F = Pools[Fresh].next();
      send(variant(Suite[F.Inst], F.Drop, Rng));

      // A budget probe at half the instance's minimum cost, which parks
      // unless the variant's own minimum is that low, then the retry
      // without a budget that resumes it.
      const VariantPool::Entry &P = Pools[Probe].next();
      Request ProbeReq = variant(Suite[P.Inst], P.Drop, Rng);
      ProbeReq.Opts.MaxCost = Suite[P.Inst].MinCost / 2;
      ProbeReq.MayMiss = true;
      Request Retry = ProbeReq;
      Retry.Opts.MaxCost = 0;
      Retry.MayMiss = false;
      send(ProbeReq);
      send(Retry);

      // A solve that holds one more example out, then the edit that
      // adds it back: the edit grafts onto the solve's session.
      const VariantPool::Entry &E = Pools[Edit].next();
      std::vector<size_t> Wider = E.Drop;
      Wider.push_back(E.EditExample);
      send(variant(Suite[E.Inst], Wider, Rng));
      send(variant(Suite[E.Inst], E.Drop, Rng));
    } while (secondsBetween(Start, Clock::now()) < Seconds);
    return secondsBetween(Start, Clock::now());
  };
  cycles(WarmupSeconds);
  Timed = true;
  Rep.Elapsed = cycles(A.Seconds);

  service::ServiceStats After = Svc.stats();
  Rep.Requests = After.Submitted - Before.Submitted;
  Rep.CacheHits = After.Hits - Before.Hits;
  Rep.Resumed = After.SessionsResumed - Before.SessionsResumed;
  Rep.Grafts = After.DeltaHits - Before.DeltaHits;
  return 0;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\') {
      Out += '\\';
      Out += Ch;
    } else if (static_cast<unsigned char>(Ch) < 0x20) {
      Out += ' ';
    } else {
      Out += Ch;
    }
  }
  return Out + "\"";
}

template <class Fn>
void printArray(const char *Name, const std::vector<Sample> &Samples,
                bool SearchedOnly, Fn Field) {
  std::printf("\"%s\": [", Name);
  const char *Sep = "";
  for (const Sample &S : Samples) {
    if (SearchedOnly && !S.Searched)
      continue;
    std::printf("%s%.9g", Sep, double(Field(S)));
    Sep = ", ";
  }
  std::printf("]");
}

void printReport(const Report &Rep, bool Trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"elapsed_s\": %.9g, ",
              Rep.Failed == 0 ? "true" : "false",
              (unsigned long long)Rep.Attempted,
              (unsigned long long)Rep.Failed, Rep.Elapsed);
  printArray("latency_s", Rep.Samples, false,
             [](const Sample &S) { return S.Latency; });
  if (Trace) {
    std::printf(", \"trace\": {");
    printArray("parse_s", Rep.Samples, false,
               [](const Sample &S) { return S.Parse; });
    std::printf(", ");
    printArray("stage_s", Rep.Samples, true,
               [](const Sample &S) { return S.Stage; });
    std::printf(", ");
    printArray("sweep_s", Rep.Samples, true,
               [](const Sample &S) { return S.Sweep; });
    std::printf(", ");
    printArray("overhead_s", Rep.Samples, true, [](const Sample &S) {
      return S.Latency - S.Stage - S.Sweep;
    });
    std::printf(", ");
    printArray("levels", Rep.Samples, true,
               [](const Sample &S) { return S.Levels; });
    std::printf(", ");
    printArray("candidates", Rep.Samples, true,
               [](const Sample &S) { return S.Candidates; });
    std::printf(", ");
    printArray("unique", Rep.Samples, true,
               [](const Sample &S) { return S.Unique; });
    std::printf(", ");
    printArray("small_level_s", Rep.Samples, true,
               [](const Sample &S) { return S.SmallLevels; });
    std::printf(", ");
    printArray("top_level_share", Rep.Samples, true,
               [](const Sample &S) { return S.TopLevelShare; });
    std::printf(", \"requests\": %llu, \"cache_hits\": %llu, "
                "\"resumed\": %llu, \"grafts\": %llu}",
                (unsigned long long)Rep.Requests,
                (unsigned long long)Rep.CacheHits,
                (unsigned long long)Rep.Resumed,
                (unsigned long long)Rep.Grafts);
  }
  std::printf(", \"errors\": [");
  for (size_t I = 0; I != Rep.Errors.size(); ++I)
    std::printf("%s%s", I ? ", " : "", jsonString(Rep.Errors[I]).c_str());
  std::printf("]}\n");
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: reibench_driver --workload classroom|service-mix "
               "--seed N (--seconds S --trace 0|1 "
               "| --setup 1)\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage();
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      A.Workload = Value;
      continue;
    }
    if (Arg == "--seed")
      A.Seed = std::strtoull(Value, &End, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(Value, &End);
    else if (Arg == "--trace")
      A.Trace = std::strtol(Value, &End, 10) != 0;
    else if (Arg == "--setup")
      A.Setup = std::strtol(Value, &End, 10) != 0;
    else
      usage();
    if (End == Value || *End)
      usage();
  }
  if (!(A.Seconds > 0))
    usage();

  Report Rep;
  int Code;
  if (A.Workload == "classroom")
    Code = runClassroom(A, Rep);
  else if (A.Workload == "service-mix")
    Code = runMix(A, Rep);
  else
    usage();
  if (Code != 0 || A.Setup)
    return Code;
  printReport(Rep, A.Trace);
  return 0;
}

