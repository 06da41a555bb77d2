//===- perfbench/Spans.cpp ------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace perfbench;

namespace {

void writeJsonString(std::FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    if (static_cast<unsigned char>(C) >= 0x20)
      std::fputc(C, F);
  }
  std::fputc('"', F);
}

/// The text after `"Key":` on \p Line, or null.
const char *field(const std::string &Line, const char *Key) {
  std::string Pat = std::string("\"") + Key + "\":";
  size_t At = Line.find(Pat);
  return At == std::string::npos ? nullptr : Line.c_str() + At + Pat.size();
}

} // namespace

bool SpanLog::writeChromeJson(const std::string &Path,
                              std::string &Err) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Err = "cannot write " + Path;
    return false;
  }
  double Base = Spans.empty() ? 0 : Spans.front().Begin;
  for (const Span &S : Spans)
    Base = std::min(Base, S.Begin);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%s{\"ph\":\"X\",\"pid\":%llu,\"tid\":%u,\"name\":",
                 I ? ",\n" : "", static_cast<unsigned long long>(S.Job),
                 S.Row);
    writeJsonString(F, S.Name);
    std::fprintf(F,
                 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 (S.Begin - Base) * 1e6, (S.End - S.Begin) * 1e6, I,
                 S.Parent);
  }
  std::fputs("\n]}\n", F);
  bool Ok = std::fclose(F) == 0;
  if (!Ok)
    Err = "cannot write " + Path;
  return Ok;
}

std::vector<std::vector<Interval>>
perfbench::childIntervals(const std::vector<Span> &Spans) {
  std::vector<std::vector<Interval>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.Begin, S.End});
  return Children;
}

void Coverage::add(const std::vector<Span> &Spans) {
  std::vector<std::vector<Interval>> Children = childIntervals(Spans);
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (Spans[I].Name != "job")
      continue;
    Interval J{Spans[I].Begin, Spans[I].End};
    double Covered = coveredLength(Children[I], J);
    CoveredSec += Covered;
    WallSec += J.End - J.Begin;
    if (J.End > J.Begin)
      Lowest = std::min(Lowest, Covered / (J.End - J.Begin));
  }
}

bool perfbench::readRuntimeTrace(const std::string &Path,
                                 std::vector<RuntimeEvent> &Out,
                                 uint64_t &Dropped, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "no runtime trace at " + Path;
    return false;
  }
  Out.clear();
  Dropped = 0;
  bool SawEnd = false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (const char *D = field(Line, "dropped_events")) {
      Dropped = std::strtoull(D, nullptr, 10);
      SawEnd = true;
      continue;
    }
    const char *Ph = field(Line, "ph");
    const char *Name = field(Line, "name");
    const char *Ts = field(Line, "ts");
    const char *Pid = field(Line, "pid");
    if (!Ph || !Name || !Ts || !Pid || Ph[1] == 'M')
      continue;
    RuntimeEvent E;
    E.IsSpan = Ph[1] == 'X';
    const char *NameEnd = std::strchr(Name + 1, '"');
    if (*Name != '"' || !NameEnd)
      continue;
    E.Name.assign(Name + 1, NameEnd);
    E.TsUs = std::strtod(Ts, nullptr);
    E.Row = static_cast<unsigned>(std::strtoul(Pid, nullptr, 10));
    if (E.IsSpan)
      if (const char *Dur = field(Line, "dur"))
        E.DurUs = std::strtod(Dur, nullptr);
    Out.push_back(std::move(E));
  }
  if (!SawEnd) {
    Err = "runtime trace " + Path + " is truncated";
    return false;
  }
  return true;
}
