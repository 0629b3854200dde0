#include "sampler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <unordered_map>

namespace perfbench {

namespace {

// The handler writes into the armed sampler's buffer; one sampler per
// process (the driver is single-threaded and traces one run).
std::uintptr_t* g_buffer = nullptr;
std::size_t g_capacity = 0;
std::atomic<std::size_t> g_count{0};

void OnSample(int, siginfo_t*, void* context) {
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;
    const std::uintptr_t pc = 0;
#endif
    const std::size_t i = g_count.load(std::memory_order_relaxed);
    if (i < g_capacity) {
        g_buffer[i] = pc;
        g_count.store(i + 1, std::memory_order_relaxed);
    }
}

struct Symbol {
    std::uintptr_t addr = 0;
    std::uintptr_t size = 0;
    std::string name;
};

/** STT_FUNC symbols of this executable's .symtab, sorted by address. */
std::vector<Symbol> LoadOwnSymbols() {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    const std::vector<char> image((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    std::vector<Symbol> symbols;
    if (image.size() < sizeof(Elf64_Ehdr)) return symbols;
    Elf64_Ehdr eh;
    std::memcpy(&eh, image.data(), sizeof eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64 ||
        eh.e_shentsize != sizeof(Elf64_Shdr) ||
        eh.e_shoff + std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
            image.size()) {
        return symbols;
    }
    std::vector<Elf64_Shdr> sections(eh.e_shnum);
    std::memcpy(sections.data(), image.data() + eh.e_shoff,
                sections.size() * sizeof(Elf64_Shdr));
    for (const Elf64_Shdr& sh : sections) {
        if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) {
            continue;
        }
        const Elf64_Shdr& strtab = sections[sh.sh_link];
        if (sh.sh_offset + sh.sh_size > image.size() ||
            strtab.sh_offset + strtab.sh_size > image.size()) {
            continue;
        }
        const std::size_t count = sh.sh_size / sizeof(Elf64_Sym);
        for (std::size_t i = 0; i < count; ++i) {
            Elf64_Sym sym;
            std::memcpy(&sym, image.data() + sh.sh_offset + i * sizeof sym,
                        sizeof sym);
            if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
                sym.st_name >= strtab.sh_size) {
                continue;
            }
            const char* name = image.data() + strtab.sh_offset + sym.st_name;
            symbols.push_back({sym.st_value, sym.st_size,
                               std::string(name, strnlen(name,
                                   strtab.sh_size - sym.st_name))});
        }
    }
    std::sort(symbols.begin(), symbols.end(),
              [](const Symbol& a, const Symbol& b) { return a.addr < b.addr; });
    return symbols;
}

/** Load bias of the main executable (0 for a non-PIE binary). */
std::uintptr_t MainLoadBias() {
    std::uintptr_t bias = 0;
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
            // The first object reported is the main program.
            *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
            return 1;
        },
        &bias);
    return bias;
}

std::string Demangle(const std::string& name) {
    int status = 0;
    char* out = abi::__cxa_demangle(name.c_str(), nullptr, nullptr, &status);
    if (status != 0 || out == nullptr) return name;
    std::string result(out);
    std::free(out);
    return result;
}

bool StartsWith(const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
}

/**
 * The qualified name of a demangled function, without its return type
 * or parameter list: the text before the first top-level '(' and after
 * the last top-level space. Lambda bodies keep their enclosing
 * function's name as a prefix, which is what attributes a callable to
 * the layer that owns it.
 */
std::string PrimaryName(const std::string& s) {
    int depth = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (depth == 0 && s.compare(i, 21, "(anonymous namespace)") == 0) {
            i += 20;
            continue;
        }
        if (s.compare(i, 8, "operator") == 0) {
            i += 8;
            if (s.compare(i, 2, "()") == 0) {
                ++i;
                continue;
            }
            while (i < s.size() && std::strchr("<>=!+-*/%&|^~[],", s[i])) ++i;
            --i;
            continue;
        }
        const char c = s[i];
        if (c == '<' || c == '{' || c == '[') {
            ++depth;
        } else if (c == '>' || c == '}' || c == ']' || c == ')') {
            --depth;
        } else if (c == '(') {
            if (depth == 0) return s.substr(start, i - start);
            ++depth;
        } else if (c == ' ' && depth == 0) {
            start = i + 1;
        }
    }
    return s.substr(start);
}

/** Top-level template arguments of the '<' group opening at `open`. */
std::vector<std::string> TemplateArgs(const std::string& s, std::size_t open) {
    std::vector<std::string> args;
    int depth = 0;
    std::size_t begin = open + 1;
    for (std::size_t i = open; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '<' || c == '(' || c == '{' || c == '[') {
            ++depth;
        } else if (c == '>' || c == ')' || c == '}' || c == ']') {
            if (--depth == 0) {
                args.push_back(s.substr(begin, i - begin));
                break;
            }
        } else if (c == ',' && depth == 1) {
            args.push_back(s.substr(begin, i - begin));
            begin = i + 2;  // ", "
        }
    }
    return args;
}

/** Text from the first project-owned scope in `s`, or "". */
std::string FirstOwnedScope(const std::string& s) {
    const std::size_t a = s.find("catapult::");
    const std::size_t b = s.find("perfbench::");
    const std::size_t at = std::min(a, b);
    return at == std::string::npos ? std::string() : s.substr(at);
}

/** Layer of a scope that starts with its namespace. */
std::string ClassifyScope(const std::string& scope) {
    if (StartsWith(scope, "catapult::sim::SimulatorGroup")) return "sim.group_s";
    if (StartsWith(scope, "catapult::sim::")) return "sim.kernel_s";
    if (StartsWith(scope, "catapult::shell::") ||
        StartsWith(scope, "catapult::fabric::") ||
        StartsWith(scope, "catapult::fpga::")) {
        return "shell.self_s";
    }
    if (StartsWith(scope, "catapult::host::")) return "host.self_s";
    if (StartsWith(scope, "catapult::rank::")) {
        const std::string r = scope.substr(std::strlen("catapult::rank::"));
        for (const char* p :
             {"SoftwareCostModel", "CpuPool", "SoftwareRankServer",
              "ScorerShard::total_nodes", "Model::total_tree_nodes",
              "DecisionTree::NodeCount"}) {
            if (StartsWith(r, p)) return "rank.cost_model_s";
        }
        for (const char* p :
             {"FeatureExtractor", "FeatureFsm", "ffe::FfeProcessor",
              "ScorerShard::PartialScore", "DecisionTree::Evaluate",
              "ScoringEnsemble::Score", "CompressionStage::Apply",
              "FeatureStore", "RankingFunction"}) {
            if (StartsWith(r, p)) return "rank.kernels_s";
        }
        return "rank.other_s";
    }
    if (StartsWith(scope, "catapult::service::")) {
        const std::string r = scope.substr(std::strlen("catapult::service::"));
        for (const char* p :
             {"FederatedDispatcher", "ScatterGatherDispatcher",
              "SessionFrontEnd", "ResultMerger", "FederationTestbed"}) {
            if (StartsWith(r, p)) return "service.front_s";
        }
        return "service.ring_s";
    }
    if (StartsWith(scope, "catapult::mgmt::")) return "mgmt.self_s";
    if (StartsWith(scope, "catapult::obs::")) return "obs.self_s";
    if (StartsWith(scope, "catapult::")) return "common.self_s";
    return "other.self_s";
}

/** Library time outside the executable: libc and libstdc++ (mostly
 *  malloc/free and memmove) count as allocation. */
std::string LayerOfForeignPc(std::uintptr_t pc) {
    Dl_info info;
    if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
        info.dli_fname != nullptr) {
        const std::string file = info.dli_fname;
        for (const char* lib : {"libc.so", "libc-", "libstdc++", "libm.so",
                                "libgcc_s"}) {
            if (file.find(lib) != std::string::npos) return "alloc.self_s";
        }
    }
    return "other.self_s";
}

/** Every layer the attribution reports. */
const std::vector<std::string>& LayerNames() {
    static const std::vector<std::string> names = {
        "sim.kernel_s",      "sim.group_s",      "shell.self_s",
        "host.self_s",       "rank.cost_model_s", "rank.kernels_s",
        "rank.other_s",      "service.ring_s",   "service.front_s",
        "mgmt.self_s",       "alloc.self_s",     "common.self_s",
        "obs.self_s",        "other.self_s"};
    return names;
}

/** Layer of one demangled symbol name. */
std::string LayerOfSymbol(const std::string& demangled) {
    const std::string primary = PrimaryName(demangled);
    if (StartsWith(primary, "catapult::sim::InlineFunction<")) {
        // Event thunks (invoke/relocate/destroy, and the converting
        // constructor) belong to the callable they wrap.
        const std::string owned = FirstOwnedScope(
            primary.substr(std::strlen("catapult::sim::InlineFunction<")));
        return owned.empty() ? "sim.kernel_s" : ClassifyScope(owned);
    }
    if (StartsWith(primary, "std::") || StartsWith(primary, "__gnu_cxx::")) {
        if (StartsWith(primary, "std::_Function_handler<")) {
            // std::function<Sig> thunk: the owner is the functor, not
            // the signature's argument types.
            const auto args = TemplateArgs(primary, primary.find('<'));
            if (args.size() >= 2) {
                const std::string owned = FirstOwnedScope(args[1]);
                if (!owned.empty()) return ClassifyScope(owned);
            }
        }
        // Library templates instantiated for a layer's types (its
        // containers, heaps, smart pointers) count for that layer.
        const std::string owned = FirstOwnedScope(demangled);
        return owned.empty() ? "other.self_s" : ClassifyScope(owned);
    }
    return ClassifyScope(primary);
}

/** Resolves PCs to (symbol, layer), caching per symbol. */
class Resolver {
  public:
    Resolver() : symbols_(LoadOwnSymbols()), bias_(MainLoadBias()) {}

    /** Symbol index for `pc`, or -1 when outside the executable. */
    long Find(std::uintptr_t pc) const {
        const std::uintptr_t addr = pc - bias_;
        auto it = std::upper_bound(
            symbols_.begin(), symbols_.end(), addr,
            [](std::uintptr_t a, const Symbol& s) { return a < s.addr; });
        if (it == symbols_.begin()) return -1;
        --it;
        if (addr >= it->addr + std::max<std::uintptr_t>(it->size, 1)) return -1;
        return it - symbols_.begin();
    }

    const std::string& Name(long index) {
        auto it = demangled_.find(index);
        if (it == demangled_.end()) {
            it = demangled_
                     .emplace(index, Demangle(symbols_[static_cast<std::size_t>(
                                                           index)]
                                                  .name))
                     .first;
        }
        return it->second;
    }

    std::string Layer(std::uintptr_t pc) {
        const long index = Find(pc);
        if (index < 0) return LayerOfForeignPc(pc);
        auto it = layer_.find(index);
        if (it == layer_.end()) {
            it = layer_.emplace(index, LayerOfSymbol(Name(index))).first;
        }
        return it->second;
    }

  private:
    std::vector<Symbol> symbols_;
    std::uintptr_t bias_;
    std::unordered_map<long, std::string> demangled_;
    std::unordered_map<long, std::string> layer_;
};

}  // namespace

LeafSampler::LeafSampler(int period_us, std::size_t capacity)
    : pcs_(capacity, 0), period_us_(period_us) {
    g_buffer = pcs_.data();
    g_capacity = pcs_.size();
    g_count.store(0);
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_sigaction = &OnSample;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    sigevent event;
    std::memset(&event, 0, sizeof event);
    event.sigev_notify = SIGEV_SIGNAL;
    event.sigev_signo = SIGPROF;
    timer_ok_ = timer_create(CLOCK_MONOTONIC, &event, &timer_) == 0;
}

LeafSampler::~LeafSampler() {
    if (timer_ok_) {
        Disarm();
        timer_delete(timer_);
    }
    signal(SIGPROF, SIG_DFL);
    g_buffer = nullptr;
    g_capacity = 0;
}

void LeafSampler::Arm() {
    if (!timer_ok_) return;
    itimerspec spec;
    std::memset(&spec, 0, sizeof spec);
    spec.it_interval.tv_nsec = static_cast<long>(period_us_) * 1000;
    spec.it_value = spec.it_interval;
    timer_settime(timer_, 0, &spec, nullptr);
}

void LeafSampler::Disarm() {
    if (!timer_ok_) return;
    itimerspec spec;
    std::memset(&spec, 0, sizeof spec);
    timer_settime(timer_, 0, &spec, nullptr);
}

std::size_t LeafSampler::samples() const {
    return std::min(g_count.load(), pcs_.size());
}

std::map<std::string, std::uint64_t> LeafSampler::Attribute() const {
    std::map<std::string, std::uint64_t> counts;
    for (const std::string& name : LayerNames()) counts[name] = 0;
    Resolver resolver;
    for (std::size_t i = 0; i < samples(); ++i) {
        ++counts[resolver.Layer(pcs_[i])];
    }
    return counts;
}

std::vector<std::string> LeafSampler::TopSymbols(std::size_t n) const {
    Resolver resolver;
    std::unordered_map<std::string, std::uint64_t> by_symbol;
    for (std::size_t i = 0; i < samples(); ++i) {
        const long index = resolver.Find(pcs_[i]);
        std::string key = resolver.Layer(pcs_[i]);
        key += ' ';
        key += index < 0 ? std::string("[shared library]") : resolver.Name(index);
        ++by_symbol[key];
    }
    std::vector<std::pair<std::uint64_t, std::string>> sorted;
    for (const auto& [name, count] : by_symbol) sorted.emplace_back(count, name);
    std::sort(sorted.rbegin(), sorted.rend());
    std::vector<std::string> top;
    for (std::size_t i = 0; i < sorted.size() && i < n; ++i) {
        top.push_back(std::to_string(sorted[i].first) + " " + sorted[i].second);
    }
    return top;
}

}  // namespace perfbench
