#include "sim/log.hh"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>

namespace pimdsm
{

void
panic(const std::string &msg)
{
    throw PanicError("pimdsm panic: " + msg);
}

void
fatal(const std::string &msg)
{
    throw FatalError("pimdsm fatal: " + msg);
}

namespace
{

std::set<std::string> &
warnedSet()
{
    static std::set<std::string> s;
    return s;
}

/** warn() can fire from concurrent runPoints() workers. */
std::mutex &
warnMutex()
{
    static std::mutex mu;
    return mu;
}

/** Enabled trace components. Concurrent Machines read it on every
 *  message delivery, so reads take the lock only while some component
 *  is enabled (traceCount is non-zero). */
std::set<std::string> &
traceSet()
{
    static std::set<std::string> s;
    return s;
}

std::mutex &
traceMutex()
{
    static std::mutex mu;
    return mu;
}

std::atomic<std::size_t> traceCount{0};

} // namespace

bool
warn(const std::string &msg)
{
    {
        std::lock_guard<std::mutex> g(warnMutex());
        if (!warnedSet().insert(msg).second)
            return false;
    }
    std::fprintf(stderr, "pimdsm warn: %s\n", msg.c_str());
    return true;
}

void
warnResetForTest()
{
    std::lock_guard<std::mutex> g(warnMutex());
    warnedSet().clear();
}

void
Trace::enable(const std::string &component, bool on)
{
    std::lock_guard<std::mutex> g(traceMutex());
    if (on)
        traceSet().insert(component);
    else
        traceSet().erase(component);
    traceCount.store(traceSet().size(), std::memory_order_release);
}

bool
Trace::enabled(const std::string &component)
{
    if (traceCount.load(std::memory_order_acquire) == 0)
        return false;
    std::lock_guard<std::mutex> g(traceMutex());
    return traceSet().count(component) != 0;
}

void
Trace::print(std::uint64_t tick, const std::string &component,
             const std::string &msg)
{
    std::fprintf(stderr, "%12llu: %s: %s\n",
                 static_cast<unsigned long long>(tick), component.c_str(),
                 msg.c_str());
}

} // namespace pimdsm
