#include "bus/transaction_log.h"

#include "common/logging.h"

namespace fbsim {

namespace {

const char *
cmdName(BusCmd cmd)
{
    switch (cmd) {
      case BusCmd::Read:      return "Read";
      case BusCmd::WriteWord: return "WriteWord";
      case BusCmd::WriteLine: return "Push";
      case BusCmd::AddrOnly:  return "Invalidate";
      case BusCmd::Sync:      return "Sync";
    }
    return "?";
}

} // namespace

std::string
formatTransaction(const BusRequest &req, const BusResult &result)
{
    std::string sig;
    if (req.sig.ca)
        sig += "CA ";
    if (req.sig.im)
        sig += "IM ";
    if (req.sig.bc)
        sig += "BC ";
    std::string resp;
    if (result.resp.ch)
        resp += "CH ";
    if (result.resp.di)
        resp += "DI ";
    if (result.resp.sl)
        resp += "SL ";
    std::string out = strprintf(
        "m%-3u %-10s line 0x%-8llx %-9s| %-9s", req.master,
        cmdName(req.cmd), static_cast<unsigned long long>(req.line),
        sig.c_str(), resp.c_str());
    if (req.cmd == BusCmd::Read) {
        out += result.suppliedByCache ? " <- cache" : " <- memory";
    }
    if (result.aborts > 0)
        out += strprintf(" (%llu aborts)",
                         static_cast<unsigned long long>(result.aborts));
    out += strprintf(" [%llu cyc]",
                     static_cast<unsigned long long>(result.cost));
    return out;
}

TransactionLog::TransactionLog(std::size_t capacity)
    : capacity_(capacity)
{
    fbsim_assert(capacity > 0);
}

void
TransactionLog::onBusTransaction(const BusRequest &req,
                                 const BusResult &result, Cycles)
{
    ++observed_;
    entries_.push_back(formatTransaction(req, result));
    while (entries_.size() > capacity_)
        entries_.pop_front();
}

std::string
TransactionLog::render() const
{
    std::string out;
    for (const std::string &entry : entries_)
        out += entry + "\n";
    return out;
}

void
TransactionLog::clear()
{
    entries_.clear();
}

} // namespace fbsim
